package flags

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// BoolID and IntID are IDs known to name a flag of one type. The hot
// checks (hierarchy validation, the simulator's flag reads) hold them in
// tables resolved once per registry, and read values through
// Config.BoolAt and IntAt without a name lookup or a type check per read.
type (
	BoolID ID
	IntID  ID
)

var handleTypes = map[reflect.Type]Type{
	reflect.TypeOf(BoolID(0)): Bool,
	reflect.TypeOf(IntID(0)):  Int,
}

// ResolveIDs fills the struct that dst points to: every field of type
// BoolID or IntID gets the ID of the flag named like the field.
// Other fields are left alone. An unknown name or a flag of another type
// panics — the tables are fixed lists of flag names, so a mismatch is
// a programming error.
func (r *Registry) ResolveIDs(dst any) {
	v := reflect.ValueOf(dst).Elem()
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		want, ok := handleTypes[sf.Type]
		if !ok {
			continue
		}
		id := r.ID(sf.Name)
		if id == NoID {
			panic(fmt.Sprintf("flags: unknown flag %s", sf.Name))
		}
		if got := r.byID[id].Type; got != want {
			panic(fmt.Sprintf("flags: %s is %v, not %v", sf.Name, got, want))
		}
		v.Field(i).SetInt(int64(id))
	}
}

// IDTable memoizes a struct of IDs (see ResolveIDs) per registry. The
// process runs on the shared standard registry, so after the first call
// For is one atomic load and a pointer compare; a different registry
// resolves afresh. The zero value is ready to use.
type IDTable[T any] struct {
	last atomic.Pointer[resolved[T]]
}

type resolved[T any] struct {
	reg *Registry
	ids T
}

// For returns the table resolved against reg. The result is shared and
// read-only.
func (t *IDTable[T]) For(reg *Registry) *T {
	if e := t.last.Load(); e != nil && e.reg == reg {
		return &e.ids
	}
	e := &resolved[T]{reg: reg}
	reg.ResolveIDs(&e.ids)
	t.last.Store(e)
	return &e.ids
}
