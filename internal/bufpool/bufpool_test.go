package bufpool

import "testing"

// TestPutDropsOversizedBuffer pins the cap: a buffer grown past
// MaxPooled is never handed out again, while one within it is reused.
// sync.Pool may drop any Put (the race detector drops one in four at
// random), so reuse is checked over repeated tries.
func TestPutDropsOversizedBuffer(t *testing.T) {
	var p Pool
	big := p.Get()
	big.Grow(MaxPooled + 1)
	for i := 0; i < 100; i++ {
		p.Put(big)
		if got := p.Get(); got == big {
			t.Fatalf("a buffer of capacity %d came back from the pool", big.Cap())
		}
	}

	small := p.Get()
	small.WriteString("answer")
	reused := false
	for i := 0; i < 100 && !reused; i++ {
		p.Put(small)
		got := p.Get()
		if got.Len() != 0 {
			t.Fatalf("Get returned a buffer holding %q", got.Bytes())
		}
		reused = got == small
	}
	if !reused {
		t.Fatal("a buffer within the cap was never reused")
	}
}

// TestPutNil is a no-op, so callers can release a buffer they never
// took.
func TestPutNil(t *testing.T) {
	var p Pool
	p.Put(nil)
	if p.Get() == nil {
		t.Fatal("Get returned nil")
	}
}
