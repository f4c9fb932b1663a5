module camp/bench

go 1.24

require camp v0.0.0

replace camp => ../
