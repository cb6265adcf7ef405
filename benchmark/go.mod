module bytecard/benchmark

go 1.22

require bytecard v0.0.0

replace bytecard => ../
