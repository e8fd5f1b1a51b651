module ndsearch/bench

go 1.24

require ndsearch v0.0.0

replace ndsearch => ../
