module cmpi/bench

go 1.22

require cmpi v0.0.0

replace cmpi => ../
