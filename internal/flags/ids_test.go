package flags

import "testing"

func TestResolveIDsAndIDTable(t *testing.T) {
	r := testRegistry(t)
	type table struct {
		B2    BoolID
		I1    IntID
		Other int
	}
	var ids IDTable[table]
	got := ids.For(r)
	if ID(got.B2) != r.ID("B2") || ID(got.I1) != r.ID("I1") || got.Other != 0 {
		t.Fatalf("resolved %+v", *got)
	}
	if ids.For(r) != got {
		t.Error("same registry resolved twice")
	}
	if other := ids.For(testRegistry(t)); other == got || *other != *got {
		t.Error("another registry must resolve afresh, to the same IDs here")
	}
	c := NewConfig(r)
	c.SetInt("I1", 42)
	if !c.BoolAt(got.B2) || c.IntAt(got.I1) != 42 {
		t.Error("typed reads disagree with the name accessors")
	}

	mustPanic(t, "unknown flag", func() {
		var bad struct{ Nope BoolID }
		r.ResolveIDs(&bad)
	})
	mustPanic(t, "wrong type", func() {
		var bad struct{ I1 BoolID }
		r.ResolveIDs(&bad)
	})
}
