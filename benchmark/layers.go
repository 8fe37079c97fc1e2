package main

// Running the in-process layer probes. Each layer's probe is its own main
// package under layers/, built and run separately, so that a probe broken
// by an API change costs only its own metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// probeOutput is what a probe binary prints as its last line.
type probeOutput struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	} `json:"metrics"`
}

// layerProbes builds and runs every probe and merges their metrics into
// res. A probe that fails to build, crashes or times out is listed in
// res.Unavailable and its metrics stay absent (null in the output).
func (b *bench) layerProbes(res *runResult, w workload, seed int64, outDir string) {
	benchDir := filepath.Join(b.env.root, "benchmark")
	for _, layer := range probeLayers {
		if err := b.runProbe(res, benchDir, layer, w, seed, outDir); err != nil {
			res.Unavailable = append(res.Unavailable, fmt.Sprintf("%s: %v", layer, err))
		}
	}
}

func (b *bench) runProbe(res *runResult, benchDir, layer string, w workload, seed int64, outDir string) error {
	bin, err := b.env.goBuild(benchDir, "./layers/"+layer, "probe-"+layer)
	if err != nil {
		return err
	}
	args := []string{"-seed", fmt.Sprint(seed), "-tuples", fmt.Sprint(tuples), "-tmp", b.env.tmpDir}
	if layer == "pipeline" {
		args = append(args, "-workload", w.Name, "-out", filepath.Join(outDir, "trace-"+w.Name+".json"))
		if w.Durable {
			args = append(args, "-durable")
		}
	}
	c, err := b.env.spawn("probe-"+layer, bin, args...)
	if err != nil {
		return err
	}
	select {
	case <-c.done:
	case <-time.After(phaseTimeout):
		c.kill()
		return fmt.Errorf("timed out after %v", phaseTimeout)
	}
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("%v; stderr tail:\n%s", c.cmd.ProcessState, c.stderr.String())
	}
	out := bytes.TrimSpace(c.stdout.Bytes())
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		fmt.Printf("%s\n", out[:i]) // the probe's own tables
		out = out[i+1:]
	}
	var po probeOutput
	if err := json.Unmarshal(out, &po); err != nil {
		return fmt.Errorf("bad probe output: %v", err)
	}
	for name, m := range po.Metrics {
		res.set(name, m.Value, m.Unit, m.N)
	}
	return nil
}
