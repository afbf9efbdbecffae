// Package hierarchy implements the paper's first contribution: organizing
// the JVM's flags into a tree that encodes their dependencies. A flag like
// CMSInitiatingOccupancyFraction only means anything when the CMS collector
// is selected; TieredStopAtLevel only when tiered compilation is on. The
// tree makes those relationships explicit so that
//
//   - the tuner only mutates flags that are *active* under the current
//     configuration (dependency resolution), and
//   - the size of the space actually searched collapses from the flat
//     product of all domains to the per-branch products (search-space
//     reduction, the paper's Table 3 claim).
//
// The tree also owns semantic validation of flag combinations (collector
// exclusivity, heap-geometry sanity): exactly the checks the real VM
// performs at startup, shared here between the tuner and the simulator.
package hierarchy

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/flags"
)

// Collector identifies the garbage collection algorithm a configuration
// selects.
type Collector string

// The four collector families of the JDK-7-era HotSpot VM.
const (
	Serial   Collector = "serial"
	Parallel Collector = "parallel"
	CMS      Collector = "cms"
	G1       Collector = "g1"
)

// fixedFlags are the flags the collector and validation rules read on every
// proposal, resolved to IDs once per registry.
type fixedFlags struct {
	UseSerialGC, UseParallelGC, UseConcMarkSweepGC, UseG1GC, UseParNewGC flags.BoolID
	TieredCompilation, UseTLAB, UseBiasedLocking                         flags.BoolID

	MaxHeapSize, InitialHeapSize, NewSize, MaxNewSize flags.IntID
	InitialCodeCacheSize, ReservedCodeCacheSize       flags.IntID
	PermSize, MaxPermSize                             flags.IntID
}

var fixed flags.IDTable[fixedFlags]

// SelectedCollector derives the collector a configuration selects, using
// HotSpot's ergonomics: explicit selection wins; with nothing selected the
// server VM defaults to the parallel (throughput) collector. The returned
// error reports conflicting selections, mirroring the VM's
// "Conflicting collector combinations" startup failure.
func SelectedCollector(c *flags.Config) (Collector, error) {
	return selectedCollector(c, fixed.For(c.Registry()))
}

func selectedCollector(c *flags.Config, f *fixedFlags) (Collector, error) {
	serial, cms, g1 := c.BoolAt(f.UseSerialGC), c.BoolAt(f.UseConcMarkSweepGC), c.BoolAt(f.UseG1GC)
	var pick Collector
	n := 0
	if serial {
		pick, n = Serial, n+1
	}
	if cms {
		pick, n = CMS, n+1
	}
	if g1 {
		pick, n = G1, n+1
	}
	switch {
	case n > 1:
		return "", fmt.Errorf("hierarchy: conflicting collector combinations: %v", picked(serial, cms, g1))
	case n == 1:
		// UseParallelGC defaults to true; an explicit collector choice
		// overrides it only if parallel was not *also* explicitly forced.
		if c.BoolAt(f.UseParallelGC) && c.IsExplicitID(flags.ID(f.UseParallelGC)) {
			return "", fmt.Errorf("hierarchy: conflicting collector combinations: %v and parallel", picked(serial, cms, g1))
		}
		return pick, nil
	case c.BoolAt(f.UseParallelGC):
		return Parallel, nil
	}
	return Serial, nil
}

// picked lists the explicitly selected collectors for error messages; the
// success paths never build it, so they allocate nothing.
func picked(serial, cms, g1 bool) []Collector {
	var out []Collector
	if serial {
		out = append(out, Serial)
	}
	if cms {
		out = append(out, CMS)
	}
	if g1 {
		out = append(out, G1)
	}
	return out
}

// Validate checks a configuration for the semantic rules a real VM enforces
// at startup. A nil return means the VM would start.
func Validate(c *flags.Config) error {
	f := fixed.For(c.Registry())
	col, err := selectedCollector(c, f)
	if err != nil {
		return err
	}
	if c.BoolAt(f.UseParNewGC) && col != CMS {
		return fmt.Errorf("hierarchy: UseParNewGC is only valid with the CMS collector (selected %s)", col)
	}
	heap := c.IntAt(f.MaxHeapSize)
	if init := c.IntAt(f.InitialHeapSize); init > heap {
		return fmt.Errorf("hierarchy: InitialHeapSize (%d) exceeds MaxHeapSize (%d)", init, heap)
	}
	if ns, ms := c.IntAt(f.NewSize), c.IntAt(f.MaxNewSize); ms != 0 && ns > ms {
		return fmt.Errorf("hierarchy: NewSize (%d) exceeds MaxNewSize (%d)", ns, ms)
	}
	if ms := c.IntAt(f.MaxNewSize); ms != 0 && ms >= heap {
		return fmt.Errorf("hierarchy: MaxNewSize (%d) leaves no old generation in a %d-byte heap", ms, heap)
	}
	if c.IntAt(f.InitialCodeCacheSize) > c.IntAt(f.ReservedCodeCacheSize) {
		return fmt.Errorf("hierarchy: InitialCodeCacheSize exceeds ReservedCodeCacheSize")
	}
	if c.IntAt(f.PermSize) > c.IntAt(f.MaxPermSize) {
		return fmt.Errorf("hierarchy: PermSize exceeds MaxPermSize")
	}
	return nil
}

// Guard is a predicate deciding whether a tree node is active under a
// configuration.
type Guard func(c *flags.Config) bool

// Node is one vertex of the flag tree. A node owns a set of flags (tuned
// only while the node is active) and optionally children. A node with a
// nil Guard is active whenever its parent is.
type Node struct {
	Name        string
	Description string
	Guard       Guard
	Flags       []string
	Children    []*Node

	tunable []flags.ID // IDs of the tunable Flags, resolved by Build
}

// Branch is one alternative of a Choice: a way to configure the flags that
// select it.
type Branch struct {
	Name string
	// Apply mutates a configuration to select this branch.
	Apply func(c *flags.Config)
	// Node is the subtree activated by this branch.
	Node *Node
}

// Choice is a decision point of the tree: a small set of mutually exclusive
// branches (collector selection, compilation mode). The hierarchical tuner
// enumerates choices top-down before descending into numeric flags.
type Choice struct {
	Name     string
	Branches []Branch
}

// Tree is the assembled flag hierarchy over one registry.
type Tree struct {
	Root    *Node
	reg     *flags.Registry
	choices []Choice
}

// Registry returns the registry the tree was built over.
func (t *Tree) Registry() *flags.Registry { return t.reg }

// Choices returns the tree's decision points in top-down order.
func (t *Tree) Choices() []Choice { return t.choices }

// ActiveFlags returns the sorted IDs of all *tunable* flags that are
// active (their node's guard chain holds) under c. These are the flags a
// dependency-respecting tuner may usefully mutate.
func (t *Tree) ActiveFlags(c *flags.Config) []flags.ID {
	var out []flags.ID
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Guard != nil && !n.Guard(c) {
			return
		}
		out = append(out, n.tunable...)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.Root)
	slices.Sort(out)
	return slices.Compact(out)
}

// AllTreeFlags returns the sorted names of every flag attached anywhere in
// the tree (active or not).
func (t *Tree) AllTreeFlags() []string {
	seen := map[string]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, name := range n.Flags {
			seen[name] = true
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.Root)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SpaceSize quantifies the paper's search-space-reduction claim.
// FlatLog10 is log10 of the product of every tunable flag's domain size —
// the space a hierarchy-ignorant tuner faces. HierarchicalLog10 is log10 of
// the sum over leaf branch combinations of the active-flag domain products —
// the space the tree-guided tuner faces.
type SpaceSize struct {
	FlatLog10         float64
	HierarchicalLog10 float64
	TunableFlags      int
	ActivePerBranch   map[string]int
}

// SpaceSize computes flat and hierarchy-reduced search-space sizes.
func (t *Tree) SpaceSize() SpaceSize {
	ss := SpaceSize{ActivePerBranch: map[string]int{}}
	for _, name := range t.reg.TunableNames() {
		ss.FlatLog10 += math.Log10(float64(t.reg.Lookup(name).DomainSize()))
		ss.TunableFlags++
	}
	// Enumerate the cross product of choice branches; for each combination,
	// apply the branches to a default config and measure the active space.
	combos := enumerateBranchCombos(t.choices)
	var sumLog float64 // log10 of running sum, via log-sum-exp
	first := true
	for _, combo := range combos {
		c := flags.NewConfig(t.reg)
		var label string
		for i, b := range combo {
			b.Apply(c)
			if i > 0 {
				label += "+"
			}
			label += b.Name
		}
		var branchLog float64
		active := t.ActiveFlags(c)
		for _, id := range active {
			branchLog += math.Log10(float64(t.reg.FlagByID(id).DomainSize()))
		}
		ss.ActivePerBranch[label] = len(active)
		if first {
			sumLog, first = branchLog, false
			continue
		}
		// log10(10^a + 10^b)
		hi, lo := sumLog, branchLog
		if lo > hi {
			hi, lo = lo, hi
		}
		sumLog = hi + math.Log10(1+math.Pow(10, lo-hi))
	}
	ss.HierarchicalLog10 = sumLog
	return ss
}

func enumerateBranchCombos(choices []Choice) [][]Branch {
	if len(choices) == 0 {
		return [][]Branch{{}}
	}
	rest := enumerateBranchCombos(choices[1:])
	var out [][]Branch
	for _, b := range choices[0].Branches {
		for _, r := range rest {
			combo := append([]Branch{b}, r...)
			out = append(out, combo)
		}
	}
	return out
}
