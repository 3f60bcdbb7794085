module hfstream/bench/spine

go 1.22

require hfstream v0.0.0

replace hfstream => ../..
