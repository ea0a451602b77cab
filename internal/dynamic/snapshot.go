package dynamic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"tdb/internal/digraph"
)

// State snapshot serialization. A snapshot captures everything a Maintainer
// needs to resume: the solve parameters, the compacted graph, and the cover.
// The server's WAL checkpoints use this format, so it is written defensively
// (fixed-width little-endian fields behind a magic, every bound re-validated
// on read) — a checkpoint file that passed its CRC can still be a snapshot
// from a different build, and ReadState must reject rather than build an
// inconsistent Maintainer.
//
// Layout (all integers little-endian):
//
//	magic   "TDBSNAP1"  (8 bytes)
//	k       u32
//	minLen  u32
//	n       u64        vertex count
//	edges   u64        edge count
//	edges × (u32 from, u32 to)   in (u, v) lexicographic CSR order
//	cover   u64        cover size
//	cover × u32        cover vertices, ascending
const snapMagic = "TDBSNAP1"

// stateChunk is the size of the buffer WriteState encodes into and writes
// w from, and of the edge-section chunks ReadState reads.
const stateChunk = 1 << 16

// StateSize returns the exact number of bytes WriteState writes: the
// header, 8 per live edge, and 4 per cover vertex.
func (m *Maintainer) StateSize() int {
	return len(snapMagic) + 4 + 4 + 8 + 8 + 8*m.m + 8 + 4*m.cover
}

// WriteState serializes the maintainer's full logical state to w. It compacts
// first (Snapshot), so the written graph is the overlay-free CSR — the same
// compaction the live maintainer keeps, which keeps a restored replica's
// compaction schedule aligned with the original's. Fields are encoded in
// place into one stateChunk buffer, which goes to w whenever it fills.
func (m *Maintainer) WriteState(w io.Writer) error {
	g := m.Snapshot()
	buf := make([]byte, stateChunk)
	off := copy(buf, snapMagic)
	binary.LittleEndian.PutUint32(buf[off:], uint32(m.k))
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(m.minLen))
	binary.LittleEndian.PutUint64(buf[off+8:], uint64(m.n))
	binary.LittleEndian.PutUint64(buf[off+16:], uint64(g.NumEdges()))
	off += 24
	flush := func() error {
		_, err := w.Write(buf[:off])
		off = 0
		return err
	}
	// room makes room for k more bytes, flushing a full buffer.
	room := func(k int) error {
		if off+k > len(buf) {
			return flush()
		}
		return nil
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, x := range g.Out(digraph.VID(v)) {
			if err := room(8); err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(v))
			binary.LittleEndian.PutUint32(buf[off+4:], uint32(x))
			off += 8
		}
	}
	if err := room(8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[off:], uint64(m.cover))
	off += 8
	for v, a := range m.active {
		if a {
			continue
		}
		if err := room(4); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	return flush()
}

// ReadState deserializes a snapshot written by WriteState and rebuilds a
// Maintainer from it. Every field is validated: parameter bounds, edge
// endpoints in range and in strictly ascending CSR order (the order
// WriteState writes), and cover vertices in range. The error messages name
// the field so a corrupt checkpoint is diagnosable.
func ReadState(r io.Reader) (*Maintainer, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot magic: %w", err)
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("dynamic: not a state snapshot (magic %q)", magic)
	}
	var b8 [8]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b8[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b8[:4]), nil
	}
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b8[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b8[:]), nil
	}
	k32, err := get32()
	if err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot k: %w", err)
	}
	minLen32, err := get32()
	if err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot minLen: %w", err)
	}
	k, minLen := int(k32), int(minLen32)
	if minLen < 2 || k < minLen || k32 > 1<<20 {
		return nil, fmt.Errorf("dynamic: snapshot has invalid parameters k=%d minLen=%d", k32, minLen32)
	}
	n64, err := get64()
	if err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot n: %w", err)
	}
	if n64 > 1<<32 {
		return nil, fmt.Errorf("dynamic: snapshot vertex count %d out of range", n64)
	}
	n := int(n64)
	edges, err := get64()
	if err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot edge count: %w", err)
	}
	if n64 > 0 && edges > n64*n64 {
		return nil, fmt.Errorf("dynamic: snapshot edge count %d exceeds n^2", edges)
	}
	// WriteState emits the edges in CSR order, strictly ascending in
	// (u, v), so the graph is filled straight from that order with no sort
	// and no dedupe; any other order is a corrupt or foreign snapshot. The
	// section is read in bounded chunks: a corrupt edge count runs out of
	// bytes before it can size an allocation.
	keys := make([]uint64, 0, min(edges, 1<<16))
	chunk := make([]byte, 8*min(edges, stateChunk/8))
	for read := uint64(0); read < edges; {
		c := chunk[:8*min(edges-read, stateChunk/8)]
		if _, err := io.ReadFull(br, c); err != nil {
			return nil, fmt.Errorf("dynamic: reading snapshot edges from %d: %w", read, err)
		}
		for off := 0; off < len(c); off, read = off+8, read+1 {
			u, v := binary.LittleEndian.Uint32(c[off:]), binary.LittleEndian.Uint32(c[off+4:])
			if uint64(u) >= n64 || uint64(v) >= n64 {
				return nil, fmt.Errorf("dynamic: snapshot edge %d (%d -> %d) out of range n=%d", read, u, v, n)
			}
			k := uint64(u)<<32 | uint64(v)
			if len(keys) > 0 && k <= keys[len(keys)-1] {
				return nil, fmt.Errorf("dynamic: snapshot edge %d (%d -> %d) out of CSR order", read, u, v)
			}
			keys = append(keys, k)
		}
	}
	coverLen, err := get64()
	if err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot cover size: %w", err)
	}
	if coverLen > n64 {
		return nil, fmt.Errorf("dynamic: snapshot cover size %d exceeds n=%d", coverLen, n)
	}
	cover := make([]digraph.VID, coverLen)
	for i := range cover {
		v, err := get32()
		if err != nil {
			return nil, fmt.Errorf("dynamic: reading snapshot cover vertex %d: %w", i, err)
		}
		cover[i] = digraph.VID(v)
	}
	// Trailing garbage means the reader and writer disagree about the
	// format; refuse rather than silently ignore.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("dynamic: snapshot has trailing bytes")
	}
	next := 0
	g := digraph.FromSortedRows(n, len(keys), func(dst []VID, u VID) []VID {
		for ; next < len(keys) && VID(keys[next]>>32) == u; next++ {
			dst = append(dst, VID(keys[next]))
		}
		return dst
	})
	m, err := FromGraph(g, k, minLen, cover)
	if err != nil {
		return nil, fmt.Errorf("dynamic: rebuilding from snapshot: %w", err)
	}
	return m, nil
}

// Fingerprint returns a digest of the maintainer's logical state — the
// (graph, cover, k, minLen) tuple after compaction. Two maintainers with
// equal fingerprints answer every query identically. Used by the crash
// recovery soak to compare a recovered server against a reference replay.
func (m *Maintainer) Fingerprint() uint64 {
	return StateFingerprint(m.Snapshot(), m.Cover(), m.k, m.minLen)
}

// StateFingerprint hashes the canonical serialization of a solve state:
// FNV-1a 64 over k, minLen, n, the edge list in CSR order, and the cover
// ascending. The graph's CSR order is canonical (sorted adjacency), so equal
// logical states hash equal regardless of insertion order.
func StateFingerprint(g digraph.Adjacency, cover []digraph.VID, k, minLen int) uint64 {
	h := fnv.New64a()
	var b8 [8]byte
	w32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		h.Write(b8[:4])
	}
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		h.Write(b8[:])
	}
	w32(uint32(k))
	w32(uint32(minLen))
	w64(uint64(g.NumVertices()))
	w64(uint64(g.NumEdges()))
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Out(digraph.VID(v)) {
			w32(uint32(v))
			w32(uint32(w))
		}
	}
	w64(uint64(len(cover)))
	for _, v := range cover {
		w32(uint32(v))
	}
	return h.Sum64()
}
