module nfvpredict/bench

go 1.22

require nfvpredict v0.0.0

replace nfvpredict => ../
