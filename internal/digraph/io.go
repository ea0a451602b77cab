package digraph

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// Text edge-list format (SNAP style): one "u v" pair per line, '#' or '%'
// comment lines ignored, whitespace-separated, vertex IDs are non-negative
// integers. Binary format: a fixed little-endian header followed by the edge
// array, for fast reloads of generated datasets.

// ReadEdgeList parses a SNAP-style text edge list. Vertex IDs may be sparse;
// the resulting graph has max(ID)+1 vertices.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		u, v, err := parseEdgeLine(line)
		if err != nil {
			return nil, fmt.Errorf("digraph: line %d: %w", lineNo, err)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("digraph: reading edge list: %w", err)
	}
	return b.Build(), nil
}

func parseEdgeLine(line string) (VID, VID, error) {
	// Hand-rolled split: strings.Fields allocates a slice per line, which
	// dominates load time on multi-million-edge files.
	i := 0
	u, i, err := parseUint(line, i)
	if err != nil {
		return 0, 0, err
	}
	v, i, err := parseUint(line, i)
	if err != nil {
		return 0, 0, err
	}
	// Trailing columns (weights, timestamps) are permitted and ignored.
	_ = i
	if u > maxVertexID || v > maxVertexID {
		return 0, 0, fmt.Errorf("vertex ID %d out of range in %q", max(u, v), line)
	}
	return VID(u), VID(v), nil
}

func parseUint(s string, i int) (uint64, int, error) {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == ',') {
		i++
	}
	start := i
	var x uint64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		d := uint64(s[i] - '0')
		if x > (1<<32)/10 {
			return 0, i, fmt.Errorf("vertex ID overflows 32 bits in %q", s)
		}
		x = x*10 + d
		i++
	}
	if i == start {
		return 0, i, fmt.Errorf("expected integer in %q at column %d", s, i)
	}
	return x, i, nil
}

// WriteEdgeList writes the graph as a SNAP-style text edge list with a
// summary comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# directed graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Out(VID(v)) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

const binaryMagic = "TDBG0001"

// WriteBinary writes the graph in the repository's binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := [2]uint64{uint64(g.NumVertices()), uint64(g.NumEdges())}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Out(VID(v)) {
			var rec [2]VID
			rec[0], rec[1] = VID(v), u
			if err := binary.Write(bw, binary.LittleEndian, rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("digraph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("digraph: bad magic %q (want %q)", magic, binaryMagic)
	}
	var hdr [2]uint64
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("digraph: reading header: %w", err)
	}
	n, m := hdr[0], hdr[1]
	if n > maxVertexID+1 {
		return nil, fmt.Errorf("digraph: vertex count %d exceeds the vertex ID range", n)
	}
	b := NewBuilder(int(n))
	buf := make([]VID, 2*4096)
	remaining := 2 * m
	for remaining > 0 {
		chunk := uint64(len(buf))
		if remaining < chunk {
			chunk = remaining
		}
		if err := binary.Read(br, binary.LittleEndian, buf[:chunk]); err != nil {
			return nil, fmt.Errorf("digraph: reading edges: %w", err)
		}
		for i := uint64(0); i+1 < chunk; i += 2 {
			if uint64(max(buf[i], buf[i+1])) > maxVertexID {
				return nil, fmt.Errorf("digraph: vertex ID %d exceeds the vertex ID range", max(buf[i], buf[i+1]))
			}
			b.AddEdge(buf[i], buf[i+1])
		}
		remaining -= chunk
	}
	return b.Build(), nil
}

// LoadFile loads a graph from path, choosing the format by extension:
// ".bin" uses the binary format, anything else the text edge list. A
// trailing ".gz" on either transparently decompresses (SNAP distributes
// edge lists gzipped), so "web-Google.txt.gz" loads directly.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	stem := path
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("digraph: opening gzip stream: %w", err)
		}
		defer zr.Close()
		r = zr
		stem = strings.TrimSuffix(path, ".gz")
	}
	if strings.HasSuffix(stem, ".bin") {
		return ReadBinary(r)
	}
	return ReadEdgeList(r)
}

// SaveFile writes a graph to path, choosing the format by extension as in
// LoadFile.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".bin") {
		err = WriteBinary(f, g)
	} else {
		err = WriteEdgeList(f, g)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
