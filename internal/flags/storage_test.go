package flags

import (
	"reflect"
	"testing"
)

// hasPointers reports whether values of t contain pointers the garbage
// collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return true
	}
	return false
}

// TestConfigStorageIsPointerFree guards the storage layout: every array a
// Config allocates per flag must be pointer-free, so NewConfig and Clone
// stay no-scan allocations the garbage collector never walks.
func TestConfigStorageIsPointerFree(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	slices := 0
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		slices++
		if hasPointers(f.Type.Elem()) {
			t.Errorf("Config.%s holds %v, whose elements contain pointers", f.Name, f.Type.Elem())
		}
	}
	if slices == 0 {
		t.Fatal("Config has no slice storage; the guard checks nothing")
	}
	if !hasPointers(reflect.TypeOf(Value{})) {
		t.Fatal("hasPointers misses Value's string field")
	}
}

// TestConfigCloneAllocs bounds Clone at its four allocations: the struct,
// the value array, the explicit mask and the explicit-ID list.
func TestConfigCloneAllocs(t *testing.T) {
	reg := NewRegistry()
	c := NewConfig(reg)
	c.SetBool("UseG1GC", true)
	c.SetInt("MaxHeapSize", 2<<30)
	var sink *Config
	allocs := testing.AllocsPerRun(100, func() { sink = c.Clone() })
	if allocs > 4 {
		t.Errorf("Clone: %.0f allocations, want at most 4", allocs)
	}
	t.Logf("Clone: %.0f allocations", allocs)
	_ = sink
}
