module gsv/benchmark

go 1.22

require gsv v0.0.0

replace gsv => ../
