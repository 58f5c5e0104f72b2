package matrix

import "sync"

// Pool recycles dense matrix slab backing (the entry columns plus the
// matching fill array and presence filter) across matrix lifetimes, keyed by
// exact slot count and by whether the slab carries an offset column. A HIGGS
// tree draws dense slabs for two geometries only — the leaf matrix and the
// overflow-block matrix, both timed; aggregates are built frozen (Aggregate)
// and never hold one — so an exact-size class map stays tiny while letting
// Expire hand the memory of dropped subtrees straight back to the insert
// path.
//
// Slabs are zeroed on put, filter included, so get returns ready-to-use
// backing without a memclr on the hot path. Pool is safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	classes map[class][]slab
}

type class struct {
	n     int
	timed bool
}

// maxSlabsPerClass bounds retained memory per size class; beyond it put
// drops the slab for the GC.
const maxSlabsPerClass = 4

// NewPool returns an empty slab pool.
func NewPool() *Pool {
	return &Pool{classes: make(map[class][]slab)}
}

// get returns a zeroed slab of exactly n slots in n/b buckets, with an
// offset column when timed, reusing pooled backing when available.
func (p *Pool) get(n, b int, timed bool) slab {
	if p != nil {
		c := class{n, timed}
		p.mu.Lock()
		if ss := p.classes[c]; len(ss) > 0 {
			s := ss[len(ss)-1]
			p.classes[c] = ss[:len(ss)-1]
			p.mu.Unlock()
			if len(s.fills) != n/b {
				// Same slot count under a different bucket size: reshape
				// the fill array, keep the (already zeroed) columns and
				// filter, which are sized by the slot count alone.
				s.fills = make([]uint8, n/b)
			}
			return s
		}
		p.mu.Unlock()
	}
	return newSlab(n, b, timed)
}

// put zeroes the slab and retains it for reuse, up to the per-class cap. A
// slab that meets a full class is dropped for the GC as it is: Expire
// releases leaves by the dozen, and zeroing garbage was most of put's cost.
// Zero beyond fill leaves only each bucket's occupied prefix to clear. The
// clear stays outside the lock, so the cap is checked again after it.
func (p *Pool) put(s slab) {
	if p == nil || s.keys == nil {
		return
	}
	c := class{len(s.keys), s.offs != nil}
	p.mu.Lock()
	full := len(p.classes[c]) >= maxSlabsPerClass
	p.mu.Unlock()
	if full {
		return
	}
	b := len(s.keys) / len(s.fills)
	for bkt, fill := range s.fills {
		for k, hi := bkt*b, bkt*b+int(fill); k < hi; k++ {
			s.keys[k], s.ws[k], s.idxs[k] = 0, 0, 0
			if s.offs != nil {
				s.offs[k] = 0
			}
		}
	}
	clear(s.fills)
	clear(s.filter)
	p.mu.Lock()
	if len(p.classes[c]) < maxSlabsPerClass {
		p.classes[c] = append(p.classes[c], s)
	}
	p.mu.Unlock()
}

// Stats reports the pooled slab inventory: number of retained slabs and
// the total bytes of backing they hold.
func (p *Pool) Stats() (slabs int, bytes int64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ss := range p.classes {
		slabs += len(ss)
		for i := range ss {
			bytes += ss[i].heapBytes()
		}
	}
	return slabs, bytes
}
