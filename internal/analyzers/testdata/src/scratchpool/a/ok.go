// Negative corpus for scratchpool: none of these may be flagged.
package a

import "pool"

// quarantineOnPanic is the recover-and-quarantine worker shape: the
// deferred closure Puts only on the non-panic branch; the panic branch
// quarantines by NOT repooling.
func quarantineOnPanic(p *pool.ScratchPool) {
	sc := p.Get()
	defer func() {
		if r := recover(); r != nil {
			// quarantine: the scratch may hold poisoned marks
		} else if sc != nil {
			p.Put(sc)
		}
	}()
	d := pool.NewDetector(8, sc)
	d.Find()
}

// inlinePut is the engine shape (core/engine.go): deliberately NOT
// deferred, so a panicking compute quarantines the scratch.
func inlinePut(p *pool.ScratchPool) int {
	sc := p.Get()
	d := pool.NewDetector(8, sc)
	n := d.Find()
	p.Put(sc)
	return n
}

// putBothBranches Puts on every return path without a defer.
func putBothBranches(p *pool.ScratchPool, cond2 bool) int {
	sc := p.Get()
	d := pool.NewDetector(8, sc)
	if cond2 {
		p.Put(sc)
		return 0
	}
	n := d.Find()
	p.Put(sc)
	return n
}

// escapeToOwner hands the scratch to an owning struct; the owner Puts.
type owner struct {
	p  *pool.ScratchPool
	sc *pool.Scratch
}

func (o *owner) Close() {
	if o.sc != nil {
		o.p.Put(o.sc)
	}
}

func escapeToOwner(p *pool.ScratchPool) *owner {
	sc := p.Get()
	return &owner{p: p, sc: sc}
}
