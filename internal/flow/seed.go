package flow

import (
	"crypto/rand"
	"encoding/binary"
)

// hashSeed holds Hash64's seven secret lane keys. They are drawn once per
// process, so hash values mean nothing across processes and a sender cannot
// precompute keys that share an EMC set, an SMC bucket or a conntrack probe
// chain.
var hashSeed [7]uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("flow: no entropy for the hash seed: " + err.Error())
	}
	setHashSeed(binary.LittleEndian.Uint64(b[:]))
}

// setHashSeed expands seed into the lane keys (splitmix64), so the keys'
// pairwise differences are as secret as the keys.
func setHashSeed(seed uint64) {
	for i := range hashSeed {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		hashSeed[i] = z ^ z>>31
	}
}

// PinHashSeed fixes the process hash seed for the rest of the calling test
// and restores the previous one in a cleanup. Nothing that hashes may be
// running when it is called or when the cleanup runs: call it before the
// test starts a switch, so the switch's own cleanup runs first. tb is a
// testing.TB (spelled as an interface to keep package testing out of
// production binaries): only a test may choose the seed.
func PinHashSeed(tb interface {
	Helper()
	Cleanup(func())
}, seed uint64) {
	tb.Helper()
	prev := hashSeed
	setHashSeed(seed)
	tb.Cleanup(func() { hashSeed = prev })
}
