module junicon/benchmark

go 1.24

require junicon v0.0.0

replace junicon => ../
