// Package metrics is a virtual-time metrics registry for the simulated
// machine: counters and gauges keyed by a metric name plus an optional
// label (a node, process or resource identity).
//
// The simulator runs exactly one process at a time, so the registry needs
// no locking inside a simulation; like trace.Recorder it is not safe for
// real concurrent use outside the engine. Two identical runs feed the
// registry identically — Snapshot iterates in sorted key order, so the
// rendered output is byte-for-byte deterministic, which lets golden tests
// and the CI trace-validation step diff it directly.
package metrics

import (
	"fmt"
	"io"
	"sort"
)

// Kind distinguishes the two instrument families.
type Kind int

const (
	// KindCounter is a monotonically nondecreasing sum.
	KindCounter Kind = iota
	// KindGauge is a level that moves both ways and tracks its peak.
	KindGauge
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

type key struct {
	name  string
	label string
}

type instrument struct {
	kind  Kind
	value float64 // counter sum or gauge level
	peak  float64 // gauge high-water mark
}

// Registry holds the instruments. The zero value is ready to use; a nil
// *Registry is a valid no-op sink, so instrumented code needs no nil
// checks beyond passing the pointer through.
type Registry struct {
	m map[key]*instrument
}

func (r *Registry) get(name, label string, kind Kind) *instrument {
	if r.m == nil {
		r.m = make(map[key]*instrument)
	}
	k := key{name, label}
	in, ok := r.m[k]
	if !ok {
		in = &instrument{kind: kind}
		r.m[k] = in
	}
	if in.kind != kind {
		panic(fmt.Sprintf("metrics: %q/%q registered as %v, used as %v", name, label, in.kind, kind))
	}
	return in
}

// Add increments the counter (name, label) by delta. Negative deltas panic:
// counters are monotone by contract.
func (r *Registry) Add(name, label string, delta float64) {
	if r == nil {
		return
	}
	if delta < 0 {
		panic(fmt.Sprintf("metrics: counter %q/%q decremented by %g", name, label, delta))
	}
	r.get(name, label, KindCounter).value += delta
}

// Inc increments the counter (name, label) by one.
func (r *Registry) Inc(name, label string) { r.Add(name, label, 1) }

// AddGauge moves the gauge by delta (negative deltas allowed) and updates
// its peak. It is the natural instrument for in-flight counts.
func (r *Registry) AddGauge(name, label string, delta float64) {
	if r == nil {
		return
	}
	in := r.get(name, label, KindGauge)
	in.value += delta
	if in.value > in.peak {
		in.peak = in.value
	}
}

// Sample is one instrument's state in a snapshot.
type Sample struct {
	Name  string
	Label string
	Kind  Kind

	Value float64 // counter sum or gauge level
	Peak  float64 // gauge high-water mark
}

// Value returns the current counter or gauge value. It reads zero for
// instruments that were never touched.
func (r *Registry) Value(name, label string) float64 {
	if r == nil || r.m == nil {
		return 0
	}
	in, ok := r.m[key{name, label}]
	if !ok {
		return 0
	}
	return in.value
}

// Snapshot returns every instrument sorted by (name, label), detached from
// the registry. A nil or empty registry snapshots to nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil || len(r.m) == 0 {
		return nil
	}
	out := make([]Sample, 0, len(r.m))
	for k, in := range r.m {
		out = append(out, Sample{Name: k.name, Label: k.label, Kind: in.kind,
			Value: in.value, Peak: in.peak})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// WriteText renders the snapshot as an aligned table, one instrument per
// line, in deterministic order.
func (r *Registry) WriteText(w io.Writer) {
	samples := r.Snapshot()
	if len(samples) == 0 {
		fmt.Fprintln(w, "(no metrics)")
		return
	}
	nameW := 0
	for _, s := range samples {
		id := s.Name
		if s.Label != "" {
			id += "{" + s.Label + "}"
		}
		if len(id) > nameW {
			nameW = len(id)
		}
	}
	for _, s := range samples {
		id := s.Name
		if s.Label != "" {
			id += "{" + s.Label + "}"
		}
		switch s.Kind {
		case KindCounter:
			fmt.Fprintf(w, "%-*s  counter %14.6g\n", nameW, id, s.Value)
		case KindGauge:
			fmt.Fprintf(w, "%-*s  gauge   %14.6g  peak %.6g\n", nameW, id, s.Value, s.Peak)
		}
	}
}
