package mempool

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New(Config{Capacity: 4, BufSize: 64, Headroom: 64}); err == nil {
		t.Error("headroom == bufsize accepted")
	}
	p, err := New(Config{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cap() != 10 || p.Avail() != 10 {
		t.Errorf("Cap/Avail = %d/%d, want 10/10", p.Cap(), p.Avail())
	}
	if p.Headroom() != DefaultHeadroom {
		t.Errorf("Headroom = %d, want %d", p.Headroom(), DefaultHeadroom)
	}
}

func TestGetFreeCycle(t *testing.T) {
	p := MustNew(Config{Capacity: 2, BufSize: 256, Headroom: 32})
	a, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("third Get = %v, want ErrExhausted", err)
	}
	a.Free()
	if p.Avail() != 1 {
		t.Fatalf("Avail = %d, want 1", p.Avail())
	}
	b.Free()
	st := p.Stats()
	if st.Allocs != 2 || st.Frees != 2 || st.Fails != 1 {
		t.Fatalf("stats = %+v, want 2/2/1", st)
	}
}

func TestBufResetOnGet(t *testing.T) {
	p := MustNew(Config{Capacity: 1, BufSize: 256, Headroom: 32})
	b, _ := p.Get()
	b.SetBytes([]byte("hello"))
	b.Port = 7
	b.TS = 99
	b.Free()
	b2, _ := p.Get()
	if b2.Len != 0 || b2.Off != 32 || b2.Port != 0 || b2.TS != 0 {
		t.Fatalf("buffer not reset: %+v", b2)
	}
	if b2.Refcnt() != 1 {
		t.Fatalf("refcnt = %d, want 1", b2.Refcnt())
	}
}

func TestSetBytesAndBounds(t *testing.T) {
	p := MustNew(Config{Capacity: 1, BufSize: 128, Headroom: 16})
	b, _ := p.Get()
	payload := bytes.Repeat([]byte{0xAB}, 112)
	if err := b.SetBytes(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("payload round-trip mismatch")
	}
	if err := b.SetBytes(bytes.Repeat([]byte{1}, 113)); err == nil {
		t.Fatal("oversized SetBytes accepted")
	}
	b.Free()
}

func TestPrependAdj(t *testing.T) {
	p := MustNew(Config{Capacity: 1, BufSize: 128, Headroom: 16})
	b, _ := p.Get()
	b.SetBytes([]byte("payload"))
	hdr, err := b.Prepend(4)
	if err != nil {
		t.Fatal(err)
	}
	copy(hdr, "HDR:")
	if string(b.Bytes()) != "HDR:payload" {
		t.Fatalf("after prepend: %q", b.Bytes())
	}
	if _, err := b.Prepend(100); err == nil {
		t.Fatal("prepend beyond headroom accepted")
	}
	if err := b.Adj(4); err != nil {
		t.Fatal(err)
	}
	if string(b.Bytes()) != "payload" {
		t.Fatalf("after adj: %q", b.Bytes())
	}
	if err := b.Adj(100); err == nil {
		t.Fatal("adj beyond length accepted")
	}
	b.Free()
}

func TestCloneRefcount(t *testing.T) {
	p := MustNew(Config{Capacity: 1, BufSize: 128, Headroom: 16})
	b, _ := p.Get()
	c := b.Clone()
	if c != b {
		t.Fatal("Clone returned different buffer")
	}
	if b.Refcnt() != 2 {
		t.Fatalf("refcnt = %d, want 2", b.Refcnt())
	}
	b.Free()
	if p.Avail() != 0 {
		t.Fatal("buffer returned while references remain")
	}
	b.Free()
	if p.Avail() != 1 {
		t.Fatal("buffer not returned after last reference")
	}
}

// TestDoubleFreePanics: every free path goes through the one release helper,
// so freeing a buffer that is already free panics whichever path either free
// took.
func TestDoubleFreePanics(t *testing.T) {
	p := MustNew(Config{Capacity: 4, BufSize: 128, Headroom: 16})
	cache := p.NewCache()
	paths := []struct {
		name string
		free func(*Buf)
	}{
		{"Free", func(b *Buf) { b.Free() }},
		{"FreeBatch", func(b *Buf) { FreeBatch([]*Buf{b}) }},
		{"Cache.FreeBatch", func(b *Buf) { cache.FreeBatch([]*Buf{b}) }},
	}
	for _, first := range paths {
		for _, second := range paths {
			t.Run(first.name+"+"+second.name, func(t *testing.T) {
				b, err := p.Get()
				if err != nil {
					t.Fatal(err)
				}
				first.free(b)
				defer func() {
					if recover() == nil {
						t.Fatal("double free did not panic")
					}
					cache.Flush()
				}()
				second.free(b)
			})
		}
	}
}

func TestGetBatch(t *testing.T) {
	p := MustNew(Config{Capacity: 4, BufSize: 128, Headroom: 16})
	out := make([]*Buf, 8)
	n := p.GetBatch(out)
	if n != 4 {
		t.Fatalf("GetBatch = %d, want 4", n)
	}
	seen := map[*Buf]bool{}
	for _, b := range out[:n] {
		if seen[b] {
			t.Fatal("duplicate buffer from GetBatch")
		}
		seen[b] = true
		b.Free()
	}
}

// TestConcurrentChurn hammers Get/Free from many goroutines and verifies the
// population is conserved.
func TestConcurrentChurn(t *testing.T) {
	p := MustNew(Config{Capacity: 64, BufSize: 128, Headroom: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]*Buf, 0, 8)
			for i := 0; i < 20000; i++ {
				if len(local) < 8 {
					if b, err := p.Get(); err == nil {
						local = append(local, b)
						continue
					}
				}
				if len(local) > 0 {
					local[len(local)-1].Free()
					local = local[:len(local)-1]
				}
			}
			for _, b := range local {
				b.Free()
			}
		}()
	}
	wg.Wait()
	if p.Avail() != 64 {
		t.Fatalf("population leaked: avail = %d, want 64", p.Avail())
	}
	st := p.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d", st.Allocs, st.Frees)
	}
}

// TestQuickPrependAdjInverse: Adj(n) undoes Prepend(n) for any n within
// headroom, restoring the observable packet bytes.
func TestQuickPrependAdjInverse(t *testing.T) {
	p := MustNew(Config{Capacity: 1, BufSize: 512, Headroom: 64})
	f := func(payload []byte, n uint8) bool {
		if len(payload) > 448 {
			payload = payload[:448]
		}
		b, err := p.Get()
		if err != nil {
			return false
		}
		defer b.Free()
		if err := b.SetBytes(payload); err != nil {
			return false
		}
		k := int(n) % 65
		hdr, err := b.Prepend(k)
		if (err == nil) != (k <= 64) {
			return false
		}
		if err != nil {
			return true
		}
		for i := range hdr {
			hdr[i] = 0xEE
		}
		if err := b.Adj(k); err != nil {
			return false
		}
		return bytes.Equal(b.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGetFree(b *testing.B) {
	p := MustNew(Config{Capacity: 1024})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ := p.Get()
		buf.Free()
	}
}

func TestOwns(t *testing.T) {
	a := MustNew(Config{Capacity: 4})
	b := MustNew(Config{Capacity: 4})
	ba, err := a.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Free()
	if !a.Owns(ba) {
		t.Error("pool must own its own buffer")
	}
	if b.Owns(ba) {
		t.Error("foreign pool must not own the buffer")
	}
	if a.Owns(nil) {
		t.Error("nil buffer owned")
	}
	if a.Owns(&Buf{}) {
		t.Error("detached buffer owned")
	}
}

// TestForeignFreePanics simulates the cross-node migration bug the guard
// exists for: a buffer whose pool pointer was re-homed without copying the
// payload into the destination arena must not reach the foreign freelist.
func TestForeignFreePanics(t *testing.T) {
	a := MustNew(Config{Capacity: 4})
	b := MustNew(Config{Capacity: 4})
	buf, err := a.Get()
	if err != nil {
		t.Fatal(err)
	}
	buf.pool = b // buggy migration: pointer moved, storage did not
	defer func() {
		if recover() == nil {
			t.Fatal("freeing a foreign buffer must panic")
		}
	}()
	buf.Free()
}

func TestForeignFreeBatchPanics(t *testing.T) {
	a := MustNew(Config{Capacity: 4})
	b := MustNew(Config{Capacity: 4})
	buf, err := a.Get()
	if err != nil {
		t.Fatal(err)
	}
	buf.pool = b
	defer func() {
		if recover() == nil {
			t.Fatal("batch-freeing a foreign buffer must panic")
		}
	}()
	FreeBatch([]*Buf{buf})
}
