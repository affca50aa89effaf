// Package bufpool reuses the byte buffers that large answers are read
// into or encoded in. Each role (the router's relay reads, the
// service's GET answers, batch request bodies, batch items, batch
// envelopes) keeps its own Pool, so a pooled buffer grows only to the
// answers of its own role.
package bufpool

import (
	"bytes"
	"sync"
)

// MaxPooled is the largest capacity a Pool keeps. A buffer grown past
// it is left to the garbage collector, so one huge answer (a 16.7 MB
// plan body at n = 100001) does not stay resident after it is written.
const MaxPooled = 1 << 20

// Pool hands out empty byte buffers for one role. The zero value is
// ready to use and safe for concurrent use.
type Pool struct{ p sync.Pool }

// Get returns an empty buffer, reused when the pool holds one.
func (p *Pool) Get() *bytes.Buffer {
	if b, ok := p.p.Get().(*bytes.Buffer); ok {
		return b
	}
	return new(bytes.Buffer)
}

// Put returns b to the pool unless its capacity exceeds MaxPooled. The
// caller must hold no slice of b's bytes afterwards. A nil b is a
// no-op.
func (p *Pool) Put(b *bytes.Buffer) {
	if b == nil || b.Cap() > MaxPooled {
		return
	}
	b.Reset()
	p.p.Put(b)
}
