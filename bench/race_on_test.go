//go:build race

package main

// raceEnabled reports whether this test binary was built with -race: an
// instrumented datapath cannot sustain the paced phase's rates, so the
// zero-loss ledger does not apply.
const raceEnabled = true
