module github.com/glap-sim/glap/bench

go 1.22

require github.com/glap-sim/glap v0.0.0

replace github.com/glap-sim/glap => ../
