module swarmavail/bench

go 1.22

require swarmavail v0.0.0

replace swarmavail => ../
