module ijvm/bench

go 1.22

require ijvm v0.0.0

replace ijvm => ../
