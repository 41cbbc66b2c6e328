package tune

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"commoverlap/internal/cache"
)

// TableVersion is the persisted table format version; it participates in
// every cell's provenance hash, so bumping it invalidates every seeded cell.
// Version 2 added the progress-engine axis (Params.Progress).
const TableVersion = 2

// Cell is one measured grid point.
type Cell struct {
	Params Params  `json:"params"`
	BW     float64 `json:"bw"` // bytes/s, paper volume convention
	// Hash fingerprints everything that determines BW (format version,
	// machine calibration, kernel, params, launch width); a store seeded
	// from the table serves the cell only while it matches.
	Hash string `json:"hash"`
	// Cached marks a cell this search did not simulate: it was seeded from
	// a table, hit in the store, or coalesced onto another caller's
	// in-flight simulation. In-memory only: the persisted form is identical
	// either way, which is what makes a seeded regeneration byte-identical
	// to a cold one.
	Cached bool `json:"-"`
}

// Entry is one kernel's sweep: every cell plus the winner.
type Entry struct {
	Kernel Kernel  `json:"kernel"`
	Best   Params  `json:"best"`
	BestBW float64 `json:"best_bw"`
	Cells  []Cell  `json:"cells"`
}

// String is the entry's one-line summary: kernel, cell count and winner.
func (e Entry) String() string {
	return fmt.Sprintf("%-20s %3d cells, best %s at %.0f MB/s",
		e.Kernel.Name(), len(e.Cells), e.Best.label(), e.BestBW/1e6)
}

// Table is the persisted tuning table with its provenance.
type Table struct {
	Version    int     `json:"version"`
	Grid       Grid    `json:"grid"`
	SearchSeed int64   `json:"seed"` // always 0: the search is deterministic
	ConfigHash string  `json:"config_hash"`
	GoVersion  string  `json:"go_version"`
	Entries    []Entry `json:"entries"`
}

// configHash fingerprints the whole search configuration: grid and kernel
// set (the machine calibration is already inside every cell hash).
func (t *Table) configHash(kernels []Kernel) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|grid=%+v", t.Version, t.Grid)
	for _, k := range kernels {
		fmt.Fprintf(h, "|%s", k.Name())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteJSON emits the table (indented, trailing newline).
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTable parses a persisted table.
func ReadTable(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
	if t.Version != TableVersion {
		return nil, fmt.Errorf("tune: table version %d (want %d)", t.Version, TableVersion)
	}
	return &t, nil
}

// LoadTable reads a table from a file.
func LoadTable(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := ReadTable(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// SaveTable writes a table to a file.
func SaveTable(path string, t *Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Lookup returns the entry for an exactly matching kernel, or nil.
func (t *Table) Lookup(k Kernel) *Entry {
	for i := range t.Entries {
		if t.Entries[i].Kernel == k {
			return &t.Entries[i]
		}
	}
	return nil
}

// topoMismatchPenalty is what a wrong-topology entry costs in Nearest's
// log₂ distance: eight binary orders of magnitude in payload or node count.
// Winners genuinely differ across fabrics, so a same-topology entry of a
// fairly different shape still beats a wrong-topology entry of the exact
// shape, but a table with no entry for the requested fabric still resolves.
const topoMismatchPenalty = 8.0

// Nearest returns the entry whose kernel most resembles (op, bytes, nodes,
// topo): same operation, then smallest distance in log₂(bytes) with
// node-count and topology mismatches weighted in. Ties break to the earlier
// entry (strict < below), so table order is the canonical tie-break. Returns
// nil if no entry has the operation.
func (t *Table) Nearest(op string, bytes int64, nodes int, topo string) *Entry {
	var best *Entry
	bestDist := math.Inf(1)
	for i := range t.Entries {
		e := &t.Entries[i]
		if e.Kernel.Op != op {
			continue
		}
		d := math.Abs(math.Log2(float64(e.Kernel.Bytes))-math.Log2(float64(bytes))) +
			math.Abs(math.Log2(float64(e.Kernel.Nodes))-math.Log2(float64(nodes)))
		if e.Kernel.Topo != topo {
			d += topoMismatchPenalty
		}
		if d < bestDist {
			bestDist, best = d, e
		}
	}
	return best
}

// WriteCSV emits every cell as one CSV row.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "kernel,op,bytes,nodes,topo,ndup,ppn,alg,progress,bcast_long_msg,reduce_long_msg,chunk_bytes,eager_limit,bw_mbs,best"); err != nil {
		return err
	}
	for _, e := range t.Entries {
		for _, c := range e.Cells {
			best := 0
			if c.Params == e.Best {
				best = 1
			}
			topo := e.Kernel.Topo
			if topo == "" {
				topo = "flat"
			}
			alg := c.Params.Alg
			if alg == "" {
				alg = "auto"
			}
			prog := c.Params.Progress
			if prog == "" {
				prog = "off"
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%s,%d,%d,%s,%s,%d,%d,%d,%d,%.3f,%d\n",
				e.Kernel.Name(), e.Kernel.Op, e.Kernel.Bytes, e.Kernel.Nodes, topo,
				c.Params.NDup, c.Params.PPN, alg, prog, c.Params.BcastLongMsg, c.Params.ReduceLongMsg,
				c.Params.ChunkBytes, c.Params.EagerLimit, c.BW/1e6, best); err != nil {
				return err
			}
		}
	}
	return nil
}

// CachedCount reports how many of the table's cells the search that
// produced it did not simulate (see Cell.Cached), out of how many.
func (t *Table) CachedCount() (cached, total int) {
	for _, e := range t.Entries {
		for _, c := range e.Cells {
			total++
			if c.Cached {
				cached++
			}
		}
	}
	return cached, total
}

// Seed puts every cell of the table into the store under its provenance
// hash, so a search or MeasureCached through the store reads the cells the
// table vouches for instead of re-simulating them. A cell whose hash no
// longer matches the model (a calibration or schema change) is simply never
// asked for.
func (t *Table) Seed(s *cache.Store) {
	for _, e := range t.Entries {
		for _, c := range e.Cells {
			s.Put(c.Hash, c.BW)
		}
	}
}
