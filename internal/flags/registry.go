package flags

import (
	"fmt"
	"sort"
	"sync"
)

// ID is a dense, registry-assigned flag identifier: the index of the flag's
// name in the registry's sorted name order. IDs are the tuner's currency
// from proposal to simulation — configurations index their value arrays by
// ID, the search operators take ID lists, and the hot checks read fixed
// flags through IDs resolved once per registry — so no inner loop hashes a
// flag-name string. Because IDs follow sorted-name order, walking IDs in
// ascending order visits flags exactly as walking their sorted names does.
// IDs are only meaningful within the registry that assigned them.
type ID int32

// NoID is the ID of a name absent from the registry.
const NoID ID = -1

// Registry is an immutable catalog of flag definitions. NewRegistry returns
// the process-wide standard HotSpot catalog; NewCustomRegistry builds
// private catalogs (tests).
type Registry struct {
	byID       []*Flag // byID[i] is the flag named names[i]
	names      []string
	idOf       map[string]ID
	defaults   []int64 // defaults[i] is byID[i].Default in Config storage form
	tunable    []string
	tunableIDs []ID

	// scratch recycles Configs for AcquireConfig/ReleaseConfig: a Config
	// carries two registry-wide arrays, which is real garbage when a
	// server parses one throwaway configuration per request.
	scratch sync.Pool
}

// AcquireConfig returns an all-defaults Config over r, recycled from an
// internal pool when possible. Callers that parse one short-lived
// configuration per request (the evald measurement nodes) pair it with
// ReleaseConfig to keep the per-request allocation off the hot path.
func (r *Registry) AcquireConfig() *Config {
	if c, ok := r.scratch.Get().(*Config); ok {
		return c
	}
	return NewConfig(r)
}

// ReleaseConfig resets c and returns it to r's pool. The caller must not
// touch c afterwards. Configs bound to another registry are dropped
// rather than poisoning the pool; nil is a no-op.
func (r *Registry) ReleaseConfig(c *Config) {
	if c == nil || c.reg != r {
		return
	}
	c.Reset()
	r.scratch.Put(c)
}

// NewCustomRegistry builds a registry from an explicit flag list. Duplicate
// names, duplicate enum choices and invalid definitions are rejected.
func NewCustomRegistry(defs []Flag) (*Registry, error) {
	byName := make(map[string]*Flag, len(defs))
	r := &Registry{}
	for i := range defs {
		f := defs[i]
		if f.Name == "" {
			return nil, fmt.Errorf("flags: definition %d has empty name", i)
		}
		if _, dup := byName[f.Name]; dup {
			return nil, fmt.Errorf("flags: duplicate flag %s", f.Name)
		}
		if f.Type == Int && f.Min > f.Max {
			return nil, fmt.Errorf("flags: %s has Min %d > Max %d", f.Name, f.Min, f.Max)
		}
		if f.Type == Enum && len(f.Choices) == 0 {
			return nil, fmt.Errorf("flags: enum %s has no choices", f.Name)
		}
		for j, ch := range f.Choices {
			if f.choiceIndex(ch) != j {
				return nil, fmt.Errorf("flags: enum %s lists choice %q twice", f.Name, ch)
			}
		}
		if err := f.Validate(f.Default); err != nil {
			return nil, fmt.Errorf("flags: %s default out of domain: %v", f.Name, err)
		}
		cp := f
		byName[f.Name] = &cp
		r.names = append(r.names, f.Name)
	}
	sort.Strings(r.names)
	r.byID = make([]*Flag, len(r.names))
	r.idOf = make(map[string]ID, len(r.names))
	r.defaults = make([]int64, len(r.names))
	for i, n := range r.names {
		f := byName[n]
		r.byID[i] = f
		r.idOf[n] = ID(i)
		r.defaults[i] = f.raw(f.Default)
		if f.Tunable() {
			r.tunable = append(r.tunable, n)
			r.tunableIDs = append(r.tunableIDs, ID(i))
		}
	}
	return r, nil
}

var (
	standardOnce sync.Once
	standard     *Registry
)

// NewRegistry returns the standard HotSpot flag catalog: every modeled
// tuning knob plus the long tail of observability/verification flags, 600+
// definitions in total. The catalog is built once per process and shared:
// every call returns the same immutable *Registry, so IDs agree across the
// whole process and callers never pay for a rebuild.
func NewRegistry() *Registry {
	standardOnce.Do(func() { standard = newStandardRegistry() })
	return standard
}

// newStandardRegistry builds a fresh copy of the standard catalog. The
// catalog is static, so failure is a programming error and panics.
func newStandardRegistry() *Registry {
	defs := catalog()
	defs = append(defs, inertCatalog()...)
	r, err := NewCustomRegistry(defs)
	if err != nil {
		panic(err)
	}
	return r
}

// Lookup returns the definition of name, or nil if unknown. The returned
// *Flag is shared by every user of the registry and is read-only: callers
// must not modify it.
func (r *Registry) Lookup(name string) *Flag {
	if id, ok := r.idOf[name]; ok {
		return r.byID[id]
	}
	return nil
}

// ID returns the dense identifier of name, or NoID if unknown.
func (r *Registry) ID(name string) ID {
	if id, ok := r.idOf[name]; ok {
		return id
	}
	return NoID
}

// FlagByID returns the definition with the given ID. It panics on IDs the
// registry never assigned, which are programming errors. The returned
// *Flag is shared by every user of the registry and is read-only: callers
// must not modify it.
func (r *Registry) FlagByID(id ID) *Flag {
	return r.byID[id]
}

// Names returns all flag names in sorted order. The returned slice is shared;
// callers must not modify it.
func (r *Registry) Names() []string {
	return r.names
}

// Len returns the number of flags in the registry. IDs range over [0, Len).
func (r *Registry) Len() int {
	return len(r.names)
}

// ByCategory returns the names of all flags in the given category, sorted.
func (r *Registry) ByCategory(c Category) []string {
	var out []string
	for id, f := range r.byID {
		if f.Category == c {
			out = append(out, r.names[id])
		}
	}
	return out
}

// TunableNames returns the names of all tunable (Product/Experimental)
// flags, sorted. The returned slice is shared; callers must not modify it.
func (r *Registry) TunableNames() []string {
	return r.tunable
}

// TunableIDs returns the IDs of all tunable flags in ascending order — the
// ID form of TunableNames. The returned slice is shared; callers must not
// modify it.
func (r *Registry) TunableIDs() []ID {
	return r.tunableIDs
}

// DefaultConfig returns a configuration with every flag explicitly set to
// its HotSpot default.
func (r *Registry) DefaultConfig() *Config {
	c := NewConfig(r)
	c.ids = make([]ID, r.Len())
	for id := range c.ids {
		c.ids[id] = ID(id)
		c.explicit[id] = true
	}
	return c
}
