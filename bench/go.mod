module wdmsched/bench

go 1.24

require wdmsched v0.0.0

replace wdmsched => ../
