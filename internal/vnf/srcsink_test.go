package vnf

import (
	"testing"
	"time"

	"ovshighway/internal/dpdkr"
	"ovshighway/internal/mempool"
)

func TestSrcSinkGeneratesAndTerminates(t *testing.T) {
	pl := mempool.MustNew(mempool.Config{Capacity: 512, BufSize: 2048, Headroom: 128})
	host, pmd, err := dpdkr.NewPort(1, "p", 256)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSrcSink(SrcSinkConfig{
		Name: "end", PMD: pmd, Pool: pl, Spec: spec, Flows: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	defer ss.Stop()

	// Echo generated frames straight back at the endpoint.
	batch := make([]*mempool.Buf, 32)
	moved := 0
	deadline := time.Now().Add(2 * time.Second)
	for moved < 2000 && time.Now().Before(deadline) {
		n := host.Recv(batch)
		if n == 0 {
			continue
		}
		moved += host.Send(batch[:n])
	}
	if moved < 2000 {
		t.Fatalf("echoed only %d frames", moved)
	}
	deadline = time.Now().Add(2 * time.Second)
	for ss.Received.Load() < 2000 && time.Now().Before(deadline) {
	}
	if ss.Sent.Load() == 0 || ss.Received.Load() < 2000 {
		t.Fatalf("sent=%d received=%d", ss.Sent.Load(), ss.Received.Load())
	}
	if ss.RatePps() <= 0 {
		t.Fatal("rate not positive")
	}
	// Without Timestamp the latency histogram stays empty.
	if ss.Lat.Count() != 0 {
		t.Fatalf("unexpected latency samples: %d", ss.Lat.Count())
	}
}

func TestSrcSinkLatencySampling(t *testing.T) {
	pl := mempool.MustNew(mempool.Config{Capacity: 256, BufSize: 2048, Headroom: 128})
	host, pmd, err := dpdkr.NewPort(1, "p", 128)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSrcSink(SrcSinkConfig{
		Name: "end", PMD: pmd, Pool: pl, Spec: spec, Timestamp: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	defer ss.Stop()

	batch := make([]*mempool.Buf, 32)
	deadline := time.Now().Add(2 * time.Second)
	for ss.Lat.Count() < 1000 && time.Now().Before(deadline) {
		n := host.Recv(batch)
		if n > 0 {
			host.Send(batch[:n])
		}
	}
	if ss.Lat.Count() < 1000 {
		t.Fatalf("latency samples = %d", ss.Lat.Count())
	}
	p50 := ss.Lat.Quantile(0.5)
	if p50 <= 0 || p50 > time.Second {
		t.Fatalf("implausible p50 %v", p50)
	}
	// Reset is only exact once the endpoint is quiescent (in-flight frames
	// land immediately after a live reset, by design).
	ss.Stop()
	ss.ResetWindow()
	if ss.Lat.Count() != 0 || ss.Received.Load() != 0 {
		t.Fatal("window reset incomplete")
	}
}

func TestSrcSinkBuildError(t *testing.T) {
	pl := mempool.MustNew(mempool.Config{Capacity: 16, BufSize: 2048, Headroom: 128})
	_, pmd, _ := dpdkr.NewPort(1, "p", 64)
	bad := spec
	bad.Payload = make([]byte, 4000) // exceeds template buffer
	if _, err := NewSrcSink(SrcSinkConfig{Name: "x", PMD: pmd, Pool: pl, Spec: bad}); err == nil {
		t.Fatal("oversized spec accepted")
	}
}
