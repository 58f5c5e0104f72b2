module higgs/benchmark

go 1.24

require higgs v0.0.0

replace higgs => ../
