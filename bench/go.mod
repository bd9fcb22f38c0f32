module asagen/bench

go 1.23

require asagen v0.0.0

replace asagen => ../
