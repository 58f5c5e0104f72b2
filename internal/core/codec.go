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

// WriteTo writes the summary's snapshot (AppendSnapshot) to w, encoding it
// whole in memory first. WriteTo implements io.WriterTo.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(s.AppendSnapshot(nil))
	return int64(n), err
}

// AppendSnapshot appends the summary in the snapshot wire format to b.
// Pending aggregations of closed nodes are forced first so the snapshot is
// self-contained; open-spine nodes are stored without aggregate matrices
// and re-aggregate on demand after loading.
func (s *Summary) AppendSnapshot(b []byte) []byte {
	w := wire.Writer(b)
	w.U64(snapshotMagic)
	w.U64(snapshotVersion)
	// Config.
	w.U32(s.cfg.D1)
	w.U64(uint64(s.cfg.F1))
	w.Int(s.cfg.B)
	w.Int(s.cfg.Theta)
	w.Int(s.cfg.Maps)
	w.Bool(s.cfg.OverflowBlocks)
	w.Int(s.cfg.OBBucket)
	w.Bool(false) // retired seal-worker flag: always 0, ignored on read
	w.U64(s.cfg.Seed)
	// Stream state.
	w.I64(s.lastT)
	w.I64(s.items)
	w.I64(s.clamped)
	w.I64(s.rejected)
	w.Int(s.leaves)
	w.Int(s.obCount)
	w.Bool(s.finalized)
	w.Bool(s.root != nil)
	if s.root != nil {
		s.encodeNode(&w, s.root)
	}
	return w
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

// Read reads r to its end and decodes the snapshot it holds (Decode): the
// whole encoded snapshot is in memory while it decodes.
func Read(r io.Reader) (*Summary, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	return Decode(b)
}

// Decode deserializes a snapshot written by AppendSnapshot; bytes after it
// are ignored. The loaded summary is fully queryable and, unless it was
// finalized, continues to accept inserts where the original left off.
func Decode(b []byte) (*Summary, error) {
	rr := wire.NewReader(b)
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
	if rr.Bool() { // has a root; a failed read is false and fails below
		rootID, root, err := s.decodeNode(&rr)
		if err != nil {
			return nil, err
		}
		s.root, s.rootID = root, rootID
		s.rebuildSpine()
	}
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
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
		leafCfg, obCfg := s.leafCfg(), s.obCfg()
		m, err := matrix.Decode(r, &leafCfg)
		if err != nil {
			return 0, nil, err
		}
		n.mat = m
		nobs := r.Int() // sizes nothing: each block is decoded before it is appended
		for i := 0; i < nobs; i++ {
			ob, err := matrix.Decode(r, &obCfg)
			if err != nil {
				return 0, nil, err
			}
			n.obs = append(n.obs, ob)
		}
		return id, n, nil // a failed count read is Decode's final check
	}
	if r.Bool() {
		m, err := matrix.Decode(r, nil)
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
