package vswitch

// SetParkHook installs fn on forwarding thread idx (nil removes it): the
// thread calls it once per loop iteration, after loading its port snapshot
// and before polling any queue.
func (s *Switch) SetParkHook(idx int, fn func()) {
	p := s.pmdList()[idx]
	if fn == nil {
		p.testPark.Store(nil)
		return
	}
	p.testPark.Store(&fn)
}
