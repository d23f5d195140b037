module ovshighway/bench

go 1.24

require ovshighway v0.0.0

replace ovshighway => ../
