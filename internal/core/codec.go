package core

import (
	"fmt"
	"io"

	"higgs/internal/matrix"
	"higgs/internal/wire"
)

// Snapshot format identification. The format is versioned so future layout
// changes can stay readable.
const (
	snapshotMagic   = 0x48494747 // "HIGG"
	snapshotVersion = 1
)

// WriteTo serializes the summary in the snapshot wire format. Pending
// aggregations of closed nodes are forced first so the snapshot is
// self-contained; open-spine nodes are stored without aggregate matrices
// and re-aggregate on demand after loading. WriteTo implements
// io.WriterTo.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	ww := wire.NewWriter(w)
	ww.U64(snapshotMagic)
	ww.U64(snapshotVersion)
	// Config.
	ww.U32(s.cfg.D1)
	ww.U64(uint64(s.cfg.F1))
	ww.Int(s.cfg.B)
	ww.Int(s.cfg.Theta)
	ww.Int(s.cfg.Maps)
	ww.Bool(s.cfg.OverflowBlocks)
	ww.Int(s.cfg.OBBucket)
	ww.Bool(false) // retired seal-worker flag: always 0, ignored on read
	ww.U64(s.cfg.Seed)
	// Stream state.
	ww.I64(s.lastT)
	ww.I64(s.items)
	ww.I64(s.clamped)
	ww.I64(s.rejected)
	ww.Int(s.leaves)
	ww.Int(s.obCount)
	ww.Bool(s.finalized)
	ww.Bool(s.root != nil)
	if s.root != nil {
		s.encodeNode(ww, s.root)
	}
	err := ww.Flush()
	return ww.Written(), err
}

func (s *Summary) encodeNode(w *wire.Writer, n *node) {
	w.Int(int(n.level))
	w.I64(n.firstT)
	w.I64(n.lastT)
	w.Bool(n.closed)
	if n.level == 1 {
		n.mat.Encode(w)
		w.Int(len(n.obs))
		for _, ob := range n.obs {
			ob.Encode(w)
		}
		return
	}
	// A closed node is stored with its aggregate (forced here if still
	// pending); open nodes legitimately have no matrix yet.
	if n.closed {
		s.sealNow(n)
	}
	w.Bool(n.mat != nil)
	if n.mat != nil {
		n.mat.Encode(w)
	}
	kids := s.ar.children(n)
	w.Int(len(kids))
	for _, id := range kids {
		s.encodeNode(w, s.ar.node(nodeID(id)))
	}
}

// Read deserializes a summary written by WriteTo. The loaded summary is
// fully queryable and, unless it was finalized, continues to accept
// inserts where the original left off.
func Read(r io.Reader) (*Summary, error) {
	rr := wire.NewReader(r)
	rr.Expect(snapshotMagic, "snapshot magic")
	rr.Expect(snapshotVersion, "snapshot version")
	cfg := Config{
		D1:             rr.U32(),
		F1:             uint(rr.U64()),
		B:              rr.Int(),
		Theta:          rr.Int(),
		Maps:           rr.Int(),
		OverflowBlocks: rr.Bool(),
		OBBucket:       rr.Int(),
	}
	rr.Bool() // retired seal-worker flag
	cfg.Seed = rr.U64()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("core: read snapshot header: %w", err)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	s.lastT = rr.I64()
	s.items = rr.I64()
	s.clamped = rr.I64()
	s.rejected = rr.I64()
	s.leaves = rr.Int()
	s.obCount = rr.Int()
	s.finalized = rr.Bool()
	hasRoot := rr.Bool()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("core: read snapshot state: %w", err)
	}
	if hasRoot {
		rootID, root, err := s.decodeNode(rr)
		if err != nil {
			return nil, err
		}
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("core: read snapshot tree: %w", err)
		}
		s.root, s.rootID = root, rootID
		s.rebuildSpine()
	}
	return s, nil
}

func (s *Summary) decodeNode(r *wire.Reader) (nodeID, *node, error) {
	id, n := s.ar.alloc()
	n.level = int32(r.Int())
	n.firstT = r.I64()
	n.lastT = r.I64()
	n.closed = r.Bool()
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("core: decode node: %w", err)
	}
	if n.level < 1 || n.level > 64 {
		return 0, nil, fmt.Errorf("core: decode node: implausible level %d", n.level)
	}
	if n.level == 1 {
		m, err := matrix.Decode(r)
		if err != nil {
			return 0, nil, err
		}
		n.mat = m
		nobs := r.Int()
		if r.Err() == nil && nobs > 1<<24 {
			return 0, nil, fmt.Errorf("core: decode node: implausible overflow block count %d", nobs)
		}
		for i := 0; i < nobs; i++ {
			ob, err := matrix.Decode(r)
			if err != nil {
				return 0, nil, err
			}
			n.obs = append(n.obs, ob)
		}
		if err := r.Err(); err != nil {
			return 0, nil, fmt.Errorf("core: decode leaf: %w", err)
		}
		return id, n, nil
	}
	if r.Bool() {
		m, err := matrix.Decode(r)
		if err != nil {
			return 0, nil, err
		}
		if m.Cfg().Timed {
			return 0, nil, fmt.Errorf("core: decode node: level-%d aggregate matrix is timed", n.level)
		}
		// The decoded matrix is final: freeze it into the layout a seal
		// builds, dropping its dense slab, and mark the aggregation latch
		// done.
		m.Freeze()
		n.mat = m
		n.sealState = sealDone
	}
	nc := r.Int()
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("core: decode node: %w", err)
	}
	if nc < 1 || nc > s.cfg.Theta {
		return 0, nil, fmt.Errorf("core: decode node: implausible child count %d (θ=%d)", nc, s.cfg.Theta)
	}
	n.kidBase = s.ar.allocKids()
	for i := 0; i < nc; i++ {
		cid, c, err := s.decodeNode(r)
		if err != nil {
			return 0, nil, err
		}
		if c.level != n.level-1 {
			return 0, nil, fmt.Errorf("core: decode node: child level %d under level %d", c.level, n.level)
		}
		s.ar.kidBlock(n.kidBase)[i] = int32(cid)
		n.nKids = int32(i + 1)
	}
	return id, n, nil
}

// rebuildSpine repoints the open insertion path at the rightmost root-leaf
// path, which by construction holds exactly the open nodes.
func (s *Summary) rebuildSpine() {
	s.spine = make([]*node, s.root.level)
	n := s.root
	for {
		s.spine[n.level-1] = n
		if n.level == 1 {
			return
		}
		kids := s.ar.children(n)
		n = s.ar.node(nodeID(kids[len(kids)-1]))
	}
}
