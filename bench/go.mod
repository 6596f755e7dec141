module immortaldb/bench

go 1.22

require immortaldb v0.0.0

replace immortaldb => ../
