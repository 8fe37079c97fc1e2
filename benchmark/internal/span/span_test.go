package span

import "testing"

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Layer: "pipeline", Start: 0, End: 100, Parent: -1},
		// Two children overlapping each other over [30,40].
		{Layer: "store", Start: 10, End: 40, Parent: 0},
		{Layer: "wal", Start: 30, End: 60, Parent: 0},
		// A grandchild: comes off its parent's self time only.
		{Layer: "core", Start: 15, End: 25, Parent: 1},
		// A child sticking out past the parent's end is clipped.
		{Layer: "feed", Start: 90, End: 120, Parent: 0},
		// A child entirely outside the parent covers nothing.
		{Layer: "feed", Start: 200, End: 210, Parent: 0},
	}
	got := SelfTimes(spans)
	want := map[string]int64{
		"pipeline": 100 - (50 + 10), // [10,60] and [90,100]
		"store":    30 - 10,
		"wal":      30,
		"core":     10,
		"feed":     30 + 10,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestSelfTimesOfSequentialStagesSumToRoot(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("pipeline", "update", -1, 7)
	for _, layer := range []string{"store", "warehouse", "core"} {
		r.End(r.Begin(layer, "op", root, 7))
	}
	r.End(root)
	var sum int64
	for _, v := range SelfTimes(r.Spans) {
		sum += v
	}
	if total := r.Spans[root].End - r.Spans[root].Start; sum != total {
		t.Errorf("self times sum to %d, root span lasted %d", sum, total)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	i := r.Begin("store", "commit", -1, 1)
	r.End(i)
	r.SetID(i, 2)
	r.Add(Span{})
}
