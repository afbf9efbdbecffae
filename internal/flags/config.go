package flags

import (
	"fmt"
	"slices"
	"strconv"
)

// UnknownFlagError is the typed validation error for a reference to a flag
// name the registry does not define. It is what network-facing surfaces
// (the tuned HTTP API, the command-line parser) rely on to turn a bogus
// flag name in a submission into a 400 response instead of a panic.
type UnknownFlagError struct {
	// Name is the unknown flag name.
	Name string
	// msg preserves the exact diagnostic of the call site (Set, Validate,
	// ParseArgs) so error text stays byte-stable across refactors.
	msg string
}

// Error implements error.
func (e *UnknownFlagError) Error() string { return e.msg }

// unknownFlag builds an UnknownFlagError with a call-site-specific message.
func unknownFlag(name, format string, args ...any) *UnknownFlagError {
	return &UnknownFlagError{Name: name, msg: fmt.Sprintf(format, args...)}
}

// Config is a concrete assignment of values to flags in one registry,
// packed as fixed-size arrays indexed by flag ID: resolution, canonical
// keys, cloning, validation, and command-line rendering are all array walks
// in ID (= sorted-name) order, with no hashing or sorting on the hot path.
//
// Storage is pointer-free. vals holds every flag's effective value as an
// int64 — a bool is 0 or 1, an int is itself, an enum is the index of its
// (already validated) choice — so allocating and cloning a Config are
// memmoves the garbage collector never scans. Flags not explicitly set hold
// their registry defaults. Value is the API type at the edges; Get and
// EachExplicit decode to it.
//
// Config is not safe for concurrent mutation; the tuner clones before
// handing configs to worker goroutines.
type Config struct {
	reg      *Registry
	vals     []int64 // indexed by ID: effective value in storage form
	explicit []bool  // indexed by ID
	ids      []ID    // sorted IDs of explicit assignments
	memoKey  string  // Key() memo, valid when memoOK; any write clears it
	memoOK   bool
}

// NewConfig returns an empty configuration (all defaults) over reg.
func NewConfig(reg *Registry) *Config {
	c := &Config{
		reg:      reg,
		vals:     make([]int64, reg.Len()),
		explicit: make([]bool, reg.Len()),
	}
	copy(c.vals, reg.defaults)
	return c
}

// Registry returns the registry this configuration is bound to.
func (c *Config) Registry() *Registry { return c.reg }

// Reset returns c to the all-defaults state (no explicit assignments),
// keeping its storage so high-rate parsing paths can recycle one Config
// instead of re-allocating the registry-wide value arrays per use.
func (c *Config) Reset() {
	for _, id := range c.ids {
		c.vals[id] = c.reg.defaults[id]
		c.explicit[id] = false
	}
	c.ids = c.ids[:0]
	c.memoOK = false
	c.memoKey = ""
}

// setRaw records an explicit assignment of a storage-form value without
// validating it.
func (c *Config) setRaw(id ID, raw int64) {
	if !c.explicit[id] {
		c.explicit[id] = true
		// Keep the explicit-ID list sorted so every canonical walk (keys,
		// args, validation) is O(explicit), not O(registry width). Configs
		// carry a handful of assignments against a ~600-flag catalog, so
		// the insertion is a short memmove.
		i, _ := slices.BinarySearch(c.ids, id)
		c.ids = slices.Insert(c.ids, i, id)
	}
	c.vals[id] = raw
	c.memoOK = false
	c.memoKey = ""
}

// putID records an explicit assignment without validating its domain. An
// enum value must name one of the flag's choices: storage holds choice
// indexes, so an unknown choice is a programming error and panics.
func (c *Config) putID(id ID, v Value) {
	f := c.reg.byID[id]
	raw := f.raw(v)
	if raw < 0 && f.Type == Enum {
		panic(fmt.Sprintf("flags: %s=%q not in %v", f.Name, v.S, f.Choices))
	}
	c.setRaw(id, raw)
}

// Set assigns v to the named flag, validating both the name and the domain.
// Unknown names yield an *UnknownFlagError.
func (c *Config) Set(name string, v Value) error {
	id := c.reg.ID(name)
	if id == NoID {
		return unknownFlag(name, "flags: unknown flag %s", name)
	}
	return c.SetID(id, v)
}

// SetID assigns v to the flag with the given ID, validating the domain.
func (c *Config) SetID(id ID, v Value) error {
	if err := c.reg.byID[id].Validate(v); err != nil {
		return err
	}
	c.putID(id, v)
	return nil
}

// SetBool assigns a boolean flag. It panics on unknown names or type
// mismatches, which are programming errors in callers that hard-code names.
func (c *Config) SetBool(name string, b bool) {
	c.SetBoolAt(BoolID(c.mustID(name, Bool)), b)
}

// SetBoolAt assigns the boolean flag id.
func (c *Config) SetBoolAt(id BoolID, b bool) {
	var raw int64
	if b {
		raw = 1
	}
	c.setRaw(ID(id), raw)
}

// SetInt assigns an integer flag, clamping into the flag's domain.
func (c *Config) SetInt(name string, i int64) {
	id := c.mustID(name, Int)
	c.setRaw(id, c.reg.byID[id].Clamp(IntValue(i)).I)
}

// SetEnum assigns an enum flag. It panics on an unknown choice.
func (c *Config) SetEnum(name, choice string) {
	id := c.mustID(name, Enum)
	if err := c.SetID(id, EnumValue(choice)); err != nil {
		panic(err.Error())
	}
}

func (c *Config) mustID(name string, t Type) ID {
	id := c.reg.ID(name)
	if id == NoID {
		panic(fmt.Sprintf("flags: unknown flag %s", name))
	}
	if f := c.reg.byID[id]; f.Type != t {
		panic(fmt.Sprintf("flags: %s is %v, not %v", name, f.Type, t))
	}
	return id
}

// Get returns the effective value of name (explicit or default) and whether
// the flag exists.
func (c *Config) Get(name string) (Value, bool) {
	id := c.reg.ID(name)
	if id == NoID {
		return Value{}, false
	}
	return c.GetID(id), true
}

// GetID returns the effective value (explicit or default) of the flag with
// the given ID.
func (c *Config) GetID(id ID) Value {
	return c.reg.byID[id].value(c.vals[id])
}

// Bool returns the effective boolean value of name.
// It panics on unknown names or type mismatches.
func (c *Config) Bool(name string) bool {
	return c.BoolAt(BoolID(c.mustID(name, Bool)))
}

// Int returns the effective integer value of name.
// It panics on unknown names or type mismatches.
func (c *Config) Int(name string) int64 {
	return c.IntAt(IntID(c.mustID(name, Int)))
}

// Enum returns the effective enum value of name.
// It panics on unknown names or type mismatches.
func (c *Config) Enum(name string) string {
	return c.GetID(c.mustID(name, Enum)).S
}

// BoolAt returns the effective value of the boolean flag id.
func (c *Config) BoolAt(id BoolID) bool { return c.vals[id] != 0 }

// IntAt returns the effective value of the integer flag id.
func (c *Config) IntAt(id IntID) int64 { return c.vals[id] }

// IsExplicit reports whether name was explicitly assigned (as opposed to
// inheriting its default).
func (c *Config) IsExplicit(name string) bool {
	id := c.reg.ID(name)
	return id != NoID && c.explicit[id]
}

// IsExplicitID reports whether the flag id was explicitly assigned.
func (c *Config) IsExplicitID(id ID) bool { return c.explicit[id] }

// Unset removes an explicit assignment, reverting name to its default.
func (c *Config) Unset(name string) {
	if id := c.reg.ID(name); id != NoID {
		c.UnsetID(id)
	}
}

// UnsetID removes an explicit assignment, reverting the flag id to its
// default.
func (c *Config) UnsetID(id ID) {
	if !c.explicit[id] {
		return
	}
	c.explicit[id] = false
	c.vals[id] = c.reg.defaults[id]
	i, _ := slices.BinarySearch(c.ids, id)
	c.ids = slices.Delete(c.ids, i, i+1)
	c.memoOK = false
	c.memoKey = ""
}

// ExplicitNames returns the sorted names of explicitly assigned flags.
func (c *Config) ExplicitNames() []string {
	out := make([]string, 0, len(c.ids))
	for _, id := range c.ids {
		out = append(out, c.reg.names[id])
	}
	return out
}

// ExplicitIDs returns the sorted IDs of explicitly assigned flags. The
// slice is c's own and valid until c's next write; callers must not
// modify it.
func (c *Config) ExplicitIDs() []ID { return c.ids }

// EachExplicit calls fn for every explicitly assigned flag in ID (sorted
// name) order, without allocating.
func (c *Config) EachExplicit(fn func(f *Flag, v Value)) {
	for _, id := range c.ids {
		f := c.reg.byID[id]
		fn(f, f.value(c.vals[id]))
	}
}

// Clone returns an independent copy of the configuration.
func (c *Config) Clone() *Config {
	cp := &Config{
		reg:      c.reg,
		vals:     make([]int64, len(c.vals)),
		explicit: make([]bool, len(c.explicit)),
		ids:      slices.Clone(c.ids),
		memoKey:  c.memoKey,
		memoOK:   c.memoOK,
	}
	copy(cp.vals, c.vals)
	copy(cp.explicit, c.explicit)
	return cp
}

// Key returns a canonical string identifying the *effective* configuration:
// only assignments that differ from the default appear, sorted by name.
// Two configs with equal Keys behave identically; the runner uses Key for
// result caching.
//
// The result is memoized until the next write. The first Key call counts as
// a mutation for concurrency purposes: key a config before sharing it across
// goroutines (the session executor does, at proposal time).
func (c *Config) Key() string {
	if c.memoOK {
		return c.memoKey
	}
	if len(c.ids) == 0 {
		c.memoOK = true
		return ""
	}
	c.memoKey = string(c.AppendKey(nil))
	c.memoOK = true
	return c.memoKey
}

// AppendKey appends the canonical key (see Key) to dst and returns the
// extended buffer — the allocation-free form for callers that reuse a
// scratch buffer across configurations.
func (c *Config) AppendKey(dst []byte) []byte {
	first := true
	for _, id := range c.ids {
		raw := c.vals[id]
		if raw == c.reg.defaults[id] {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		f := c.reg.byID[id]
		dst = append(dst, f.Name...)
		dst = append(dst, '=')
		dst = f.appendRaw(dst, raw)
	}
	return dst
}

// appendRaw appends the storage-form value raw, rendered as Value.String
// renders it, to dst.
func (f *Flag) appendRaw(dst []byte, raw int64) []byte {
	switch f.Type {
	case Bool:
		if raw != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Enum:
		return append(dst, f.Choices[raw]...)
	}
	return strconv.AppendInt(dst, raw, 10)
}

// Diff returns, in sorted flag order, the names whose effective values
// differ between c and o. Both configs must share a registry.
func (c *Config) Diff(o *Config) []string {
	if c.reg != o.reg {
		panic("flags: Diff across registries")
	}
	var out []string
	for id, raw := range c.vals {
		if raw != o.vals[id] {
			out = append(out, c.reg.names[id])
		}
	}
	return out
}

// Validate checks every explicit assignment against its flag's domain.
// Structural validity only; semantic conflicts (e.g. two collectors
// selected) are the hierarchy's and the VM's business. Stored bools and
// enums are valid by construction, so only ints can be out of domain.
func (c *Config) Validate() error {
	for _, id := range c.ids {
		f := c.reg.byID[id]
		if raw := c.vals[id]; f.Type == Int && (raw < f.Min || raw > f.Max) {
			return f.Validate(IntValue(raw))
		}
	}
	return nil
}

// String renders the non-default assignments as a human-readable list.
func (c *Config) String() string {
	k := c.Key()
	if k == "" {
		return "<defaults>"
	}
	return k
}
