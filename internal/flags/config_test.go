package flags

import (
	"strings"
	"testing"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewCustomRegistry([]Flag{
		{Name: "B1", Type: Bool, Kind: Product, Default: BoolValue(false)},
		{Name: "B2", Type: Bool, Kind: Product, Default: BoolValue(true)},
		{Name: "I1", Type: Int, Kind: Product, Min: 0, Max: 100, Default: IntValue(10)},
		{Name: "E1", Type: Enum, Kind: Product, Choices: []string{"x", "y", "z"}, Default: EnumValue("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// put records an explicit assignment by name without validating the value.
func (c *Config) put(name string, v Value) {
	c.putID(c.reg.ID(name), v)
}

// idsOf resolves names to IDs in the order given.
func idsOf(r *Registry, names ...string) []ID {
	ids := make([]ID, len(names))
	for i, n := range names {
		ids[i] = r.ID(n)
	}
	return ids
}

func TestConfigDefaultsAndSet(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	if c.Bool("B1") || !c.Bool("B2") {
		t.Error("defaults not visible through Get")
	}
	if c.Int("I1") != 10 || c.Enum("E1") != "x" {
		t.Error("defaults not visible through typed getters")
	}
	if c.IsExplicit("B1") {
		t.Error("nothing should be explicit yet")
	}
	c.SetBool("B1", true)
	c.SetInt("I1", 55)
	c.SetEnum("E1", "z")
	if !c.Bool("B1") || c.Int("I1") != 55 || c.Enum("E1") != "z" {
		t.Error("explicit values not visible")
	}
	if !c.IsExplicit("B1") {
		t.Error("B1 should be explicit")
	}
	c.Unset("B1")
	if c.Bool("B1") {
		t.Error("Unset should revert to default")
	}
}

func TestConfigSetValidates(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	if err := c.Set("NoSuch", IntValue(1)); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := c.Set("I1", IntValue(1000)); err == nil {
		t.Error("out-of-domain value should fail")
	}
	if err := c.Set("I1", IntValue(100)); err != nil {
		t.Errorf("boundary value should pass: %v", err)
	}
}

func TestConfigSetIntClamps(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	c.SetInt("I1", 1<<40)
	if c.Int("I1") != 100 {
		t.Errorf("SetInt should clamp, got %d", c.Int("I1"))
	}
	c.SetInt("I1", -5)
	if c.Int("I1") != 0 {
		t.Errorf("SetInt should clamp low, got %d", c.Int("I1"))
	}
}

func TestConfigTypedPanics(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	mustPanic(t, "unknown name", func() { c.SetBool("Nope", true) })
	mustPanic(t, "type mismatch set", func() { c.SetBool("I1", true) })
	mustPanic(t, "type mismatch get", func() { c.Int("B1") })
	mustPanic(t, "bad enum choice", func() { c.SetEnum("E1", "nope") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestConfigCloneIndependence(t *testing.T) {
	r := testRegistry(t)
	a := NewConfig(r)
	a.SetInt("I1", 42)
	b := a.Clone()
	b.SetInt("I1", 7)
	b.SetBool("B1", true)
	if a.Int("I1") != 42 || a.Bool("B1") {
		t.Error("mutating the clone changed the original")
	}
	if b.Int("I1") != 7 {
		t.Error("clone lost its own mutation")
	}
}

func TestConfigKeyCanonical(t *testing.T) {
	r := testRegistry(t)
	a := NewConfig(r)
	b := NewConfig(r)
	// Same effective config reached differently must share a key.
	a.SetInt("I1", 42)
	a.SetBool("B1", true)
	b.SetBool("B1", true)
	b.SetInt("I1", 42)
	b.SetBool("B2", true) // explicit but equal to default: must not appear
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if strings.Contains(a.Key(), "B2") {
		t.Error("default-valued assignment leaked into key")
	}
	empty := NewConfig(r)
	if empty.Key() != "" {
		t.Errorf("empty config key = %q", empty.Key())
	}
	if empty.String() != "<defaults>" {
		t.Errorf("empty config String = %q", empty.String())
	}
}

func TestConfigDiff(t *testing.T) {
	r := testRegistry(t)
	a := NewConfig(r)
	b := NewConfig(r)
	if d := a.Diff(b); len(d) != 0 {
		t.Errorf("identical configs diff = %v", d)
	}
	b.SetInt("I1", 99)
	b.SetBool("B2", false)
	d := a.Diff(b)
	if len(d) != 2 || d[0] != "B2" || d[1] != "I1" {
		t.Errorf("diff = %v, want [B2 I1]", d)
	}
	// Explicit-but-default is not a difference.
	b2 := NewConfig(r)
	b2.SetBool("B2", true)
	if d := a.Diff(b2); len(d) != 0 {
		t.Errorf("explicit default should not diff: %v", d)
	}
}

func TestConfigValidate(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	c.SetInt("I1", 50)
	if err := c.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Corrupt internals to simulate a stale config.
	c.putID(r.ID("I1"), IntValue(1<<40))
	if err := c.Validate(); err == nil {
		t.Error("corrupted config accepted")
	}
}

func TestExplicitNamesSorted(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	c.SetEnum("E1", "y")
	c.SetBool("B1", true)
	c.SetInt("I1", 3)
	got := c.ExplicitNames()
	want := []string{"B1", "E1", "I1"}
	if len(got) != len(want) {
		t.Fatalf("ExplicitNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExplicitNames = %v, want %v", got, want)
		}
	}
}

func TestDefaultConfigMatchesRegistry(t *testing.T) {
	r := NewRegistry()
	d := r.DefaultConfig()
	for _, n := range r.Names() {
		f := r.Lookup(n)
		v, ok := d.Get(n)
		if !ok || !v.Equal(f.Type, f.Default) {
			t.Errorf("DefaultConfig: %s = %v, want default", n, v)
		}
	}
	// Although every flag is explicit, the key must still be empty: nothing
	// differs from defaults.
	if d.Key() != "" {
		t.Errorf("DefaultConfig key = %q, want empty", d.Key())
	}
}
