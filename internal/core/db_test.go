package core

import (
	"reflect"
	"testing"

	"licm/internal/expr"
)

func TestExtBasics(t *testing.T) {
	if !Certain.IsCertain() {
		t.Error("Certain should be certain")
	}
	if Certain.String() != "1" {
		t.Errorf("Certain.String() = %q", Certain.String())
	}
	e := Maybe(3)
	if e.IsCertain() {
		t.Error("Maybe(3) should not be certain")
	}
	if e.Var() != 3 {
		t.Errorf("Var = %d", e.Var())
	}
	if e.String() != "b3" {
		t.Errorf("String = %q", e.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("Var() on certain Ext should panic")
		}
	}()
	Certain.Var()
}

func TestNewVarSequence(t *testing.T) {
	db := NewDB()
	v0 := db.NewVar()
	v1 := db.NewVar()
	if v0 != 0 || v1 != 1 || db.NumVars() != 2 {
		t.Fatalf("vars = %d,%d numVars = %d", v0, v1, db.NumVars())
	}
	vs := db.NewVars(3)
	if len(vs) != 3 || vs[2] != 4 || db.NumVars() != 5 {
		t.Fatalf("NewVars = %v", vs)
	}
	if db.Def(v0).Kind != DefBase {
		t.Error("new vars should be base")
	}
}

func TestAndOrShortcuts(t *testing.T) {
	db := NewDB()
	a, b := db.NewVar(), db.NewVar()
	if e := db.And(Certain, Certain); !e.IsCertain() {
		t.Error("And of certains should be certain")
	}
	if e := db.And(Certain, Maybe(a)); e.IsCertain() || e.Var() != a {
		t.Error("And with one maybe should reuse its variable")
	}
	if e := db.Or(Maybe(a), Certain); !e.IsCertain() {
		t.Error("Or with a certain should be certain")
	}
	if e := db.Or(Maybe(b)); e.Var() != b {
		t.Error("Or of one maybe should reuse its variable")
	}
	before := db.NumVars()
	e := db.And(Maybe(a), Maybe(b))
	if e.IsCertain() || int(e.Var()) != before {
		t.Errorf("And should allocate a new var, got %v", e)
	}
	if db.Def(e.Var()).Kind != DefAnd {
		t.Error("definition kind should be DefAnd")
	}
}

func TestAndConstraintsSemantics(t *testing.T) {
	db := NewDB()
	a, b := db.NewVar(), db.NewVar()
	c := db.And(Maybe(a), Maybe(b)).Var()
	for mask := 0; mask < 4; mask++ {
		assign := make([]uint8, db.NumVars())
		assign[a] = uint8(mask & 1)
		assign[b] = uint8(mask >> 1)
		db.Extend(assign)
		want := assign[a] & assign[b]
		if assign[c] != want {
			t.Errorf("mask %d: extend gave %d, want %d", mask, assign[c], want)
		}
		if !db.Valid(assign) {
			t.Errorf("mask %d: correct extension should satisfy constraints", mask)
		}
		// The wrong value must violate some constraint (determinism).
		assign[c] = 1 - want
		if db.Valid(assign) {
			t.Errorf("mask %d: flipped lineage var should be invalid", mask)
		}
	}
}

func TestOrConstraintsSemantics(t *testing.T) {
	db := NewDB()
	a, b := db.NewVar(), db.NewVar()
	c := db.Or(Maybe(a), Maybe(b)).Var()
	for mask := 0; mask < 4; mask++ {
		assign := make([]uint8, db.NumVars())
		assign[a] = uint8(mask & 1)
		assign[b] = uint8(mask >> 1)
		db.Extend(assign)
		want := assign[a] | assign[b]
		if assign[c] != want {
			t.Errorf("mask %d: extend gave %d, want %d", mask, assign[c], want)
		}
		if !db.Valid(assign) {
			t.Errorf("mask %d: correct extension should be valid", mask)
		}
		assign[c] = 1 - want
		if db.Valid(assign) {
			t.Errorf("mask %d: flipped lineage var should be invalid", mask)
		}
	}
}

func TestAddCardinality(t *testing.T) {
	db := NewDB()
	vs := db.NewVars(5)
	db.AddCardinality(vs, 1, 2)
	if db.NumConstraints() != 2 {
		t.Fatalf("constraints = %d, want 2", db.NumConstraints())
	}
	worlds := db.EnumWorlds()
	// C(5,1) + C(5,2) = 5 + 10 = 15 worlds.
	if len(worlds) != 15 {
		t.Fatalf("worlds = %d, want 15", len(worlds))
	}
}

func TestAddCardinalityExact(t *testing.T) {
	db := NewDB()
	vs := db.NewVars(4)
	db.AddCardinality(vs, 2, 2)
	if db.NumConstraints() != 1 {
		t.Fatalf("exact cardinality should emit one EQ constraint, got %d", db.NumConstraints())
	}
	if len(db.EnumWorlds()) != 6 { // C(4,2)
		t.Fatal("want 6 worlds")
	}
}

func TestAddCardinalityOpenSides(t *testing.T) {
	db := NewDB()
	vs := db.NewVars(3)
	db.AddCardinality(vs, -1, 2) // only an upper bound
	if db.NumConstraints() != 1 {
		t.Fatalf("constraints = %d, want 1", db.NumConstraints())
	}
	db2 := NewDB()
	vs2 := db2.NewVars(3)
	db2.AddCardinality(vs2, 1, -1) // only a lower bound
	if db2.NumConstraints() != 1 {
		t.Fatalf("constraints = %d, want 1", db2.NumConstraints())
	}
}

func TestCorrelationHelpers(t *testing.T) {
	db := NewDB()
	a, b := db.NewVar(), db.NewVar()
	c, d := db.NewVar(), db.NewVar()
	e, f := db.NewVar(), db.NewVar()
	db.AddMutex(a, b)
	db.AddCoexist(c, d)
	db.AddImplies(e, f)
	worlds := db.EnumWorlds()
	for _, w := range worlds {
		if w[a]+w[b] != 1 {
			t.Errorf("mutex violated: %v", w)
		}
		if w[c] != w[d] {
			t.Errorf("coexist violated: %v", w)
		}
		if w[e] == 1 && w[f] == 0 {
			t.Errorf("implication violated: %v", w)
		}
	}
	// 2 (mutex) * 2 (coexist) * 3 (implication) = 12 worlds.
	if len(worlds) != 12 {
		t.Fatalf("worlds = %d, want 12", len(worlds))
	}
}

func TestExactlyOnePermutation(t *testing.T) {
	// Example 3: a 2x2 bijection has exactly 2 worlds.
	db := NewDB()
	m := [][]expr.Var{
		{db.NewVar(), db.NewVar()},
		{db.NewVar(), db.NewVar()},
	}
	db.AddExactlyOne([]expr.Var{m[0][0], m[0][1]})
	db.AddExactlyOne([]expr.Var{m[1][0], m[1][1]})
	db.AddExactlyOne([]expr.Var{m[0][0], m[1][0]})
	db.AddExactlyOne([]expr.Var{m[0][1], m[1][1]})
	if got := len(db.EnumWorlds()); got != 2 {
		t.Fatalf("worlds = %d, want 2", got)
	}
}

func TestDerivedReferencingLaterVarPanics(t *testing.T) {
	db := NewDB()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	db.newDerived(Def{Kind: DefAnd, Args: []expr.Var{5}})
}

func TestCountLEZeroEmitsNothing(t *testing.T) {
	// COUNT <= 0: a group visible in the output is non-empty, so no
	// world can satisfy the predicate (strict GROUP BY semantics).
	db := NewDB()
	r := NewRelation("R", "G", "X")
	r.Insert(Maybe(db.NewVar()), IntVal(1), IntVal(10))
	out := CountPredicate(db, r, []string{"G"}, CountLE, 0)
	if out.Len() != 0 {
		t.Fatalf("unexpected output: %v", out)
	}
}

func TestCountLEBetweenOneAndD(t *testing.T) {
	// Two maybe-tuples, COUNT <= 1: the group exists iff exactly one
	// tuple is present (count in [1,1]).
	db := NewDB()
	r := NewRelation("R", "G", "X")
	a, b := db.NewVar(), db.NewVar()
	r.Insert(Maybe(a), IntVal(1), IntVal(10))
	r.Insert(Maybe(b), IntVal(1), IntVal(11))
	out := CountPredicate(db, r, []string{"G"}, CountLE, 1)
	if out.Len() != 1 || out.Tuples[0].Ext.IsCertain() {
		t.Fatalf("unexpected output: %v", out)
	}
	g := out.Tuples[0].Ext.Var()
	for mask := 0; mask < 4; mask++ {
		assign := make([]uint8, db.NumVars())
		assign[a] = uint8(mask & 1)
		assign[b] = uint8(mask >> 1)
		db.Extend(assign)
		want := uint8(0)
		if assign[a]+assign[b] == 1 {
			want = 1
		}
		if assign[g] != want {
			t.Errorf("mask %d: got %d, want %d", mask, assign[g], want)
		}
		if !db.Valid(assign) {
			t.Errorf("mask %d: extension invalid", mask)
		}
	}
}

func TestCountGENonPositiveD(t *testing.T) {
	// COUNT >= 0 clamps to >= 1: the group exists iff non-empty.
	db := NewDB()
	r := NewRelation("R", "G", "X")
	a := db.NewVar()
	r.Insert(Maybe(a), IntVal(1), IntVal(10))
	out := CountPredicate(db, r, []string{"G"}, CountGE, 0)
	if out.Len() != 1 {
		t.Fatalf("unexpected output: %v", out)
	}
	if out.Tuples[0].Ext.IsCertain() || out.Tuples[0].Ext.Var() != a {
		t.Fatalf("group existence should reuse the single maybe var: %v", out.Tuples[0].Ext)
	}
}

func TestBaseVars(t *testing.T) {
	db := NewDB()
	a, b := db.NewVar(), db.NewVar()
	db.And(Maybe(a), Maybe(b))
	base := db.BaseVars()
	if len(base) != 2 || base[0] != a || base[1] != b {
		t.Fatalf("BaseVars = %v", base)
	}
}

func TestValueBasics(t *testing.T) {
	i := IntVal(7)
	s := StrVal("x")
	if i.Kind() != KindInt || s.Kind() != KindString {
		t.Fatal("kinds wrong")
	}
	if i.Int() != 7 || s.Str() != "x" {
		t.Fatal("contents wrong")
	}
	if !i.Less(s) || s.Less(i) {
		t.Error("ints should order before strings")
	}
	if !IntVal(1).Less(IntVal(2)) || IntVal(2).Less(IntVal(1)) {
		t.Error("int ordering wrong")
	}
	if !StrVal("a").Less(StrVal("b")) {
		t.Error("string ordering wrong")
	}
	if i.String() != "7" || s.String() != "x" {
		t.Error("String() wrong")
	}
	if Key([]Value{i, s}) == Key([]Value{s, i}) {
		t.Error("keys should depend on order")
	}
	if Key([]Value{StrVal("a|b")}) == Key([]Value{StrVal("a"), StrVal("b")}) {
		t.Error("keys must be unambiguous")
	}
}

func TestValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int() on string should panic")
		}
	}()
	StrVal("x").Int()
}

func TestRelationBasics(t *testing.T) {
	db := NewDB()
	r := NewRelation("R", "TID", "Item")
	r.Insert(Certain, IntVal(1), StrVal("beer"))
	r.Insert(Maybe(db.NewVar()), IntVal(1), StrVal("wine"))
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	row := r.RowAt(0)
	if row.Int("TID") != 1 || row.Str("Item") != "beer" || !row.Ext().IsCertain() {
		t.Error("RowAt accessors wrong")
	}
	if !r.HasCol("TID") || r.HasCol("Nope") {
		t.Error("HasCol wrong")
	}
	out := r.String()
	if out == "" {
		t.Error("String should render")
	}
}

func TestRelationInsertArityPanics(t *testing.T) {
	r := NewRelation("R", "A", "B")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Insert(Certain, IntVal(1))
}

func TestSortTuples(t *testing.T) {
	r := NewRelation("R", "A")
	r.Insert(Certain, IntVal(3))
	r.Insert(Certain, IntVal(1))
	r.Insert(Certain, IntVal(2))
	r.SortTuples()
	if r.Tuples[0].Vals[0].Int() != 1 || r.Tuples[2].Vals[0].Int() != 3 {
		t.Errorf("sorted order wrong: %v", r)
	}
}

func TestEnumWorldsPanicsOnLargeBase(t *testing.T) {
	db := NewDB()
	db.NewVars(25)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for > 24 base vars")
		}
	}()
	db.EnumWorlds()
}

func TestDeterministicExtensionPanicsOnManyDerived(t *testing.T) {
	db := NewDB()
	cur := Maybe(db.NewVar())
	for i := 0; i < 21; i++ {
		cur = db.And(cur, Maybe(db.NewVar()))
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for > 20 derived vars")
		}
	}()
	db.DeterministicExtension(nil)
}

func TestWorldFromMap(t *testing.T) {
	db := NewDB()
	a, b := db.NewVar(), db.NewVar()
	and := db.And(Maybe(a), Maybe(b))
	w := db.World(map[expr.Var]uint8{a: 1, b: 1})
	if w[and.Var()] != 1 {
		t.Error("World should extend derived vars")
	}
	w = db.World(map[expr.Var]uint8{a: 1})
	if w[and.Var()] != 0 {
		t.Error("unlisted base vars default to 0")
	}
}

func TestDeterministicExtensionInvalidBase(t *testing.T) {
	db := NewDB()
	v := db.NewVar()
	db.AddCardinality([]expr.Var{v}, 1, 1)
	// base v=0 violates the store; determinism is vacuous.
	if !db.DeterministicExtension(map[expr.Var]uint8{v: 0}) {
		t.Error("invalid base should be vacuously deterministic")
	}
}

// forkSteps grow a store in stages: a base encoding, then the lineage
// of two queries built on top of it. Each returns the first variable
// it creates. The base leaves spare capacity in both the definition
// and the constraint slice, so a fork appending into its parent's
// backing arrays would overwrite what a sibling fork reads.
var forkSteps = []func(db *DB) expr.Var{
	func(db *DB) expr.Var {
		vs := db.NewVars(3)
		db.AddCardinality(vs, 1, 2)
		db.And(Maybe(vs[0]), Maybe(vs[1]))
		db.Or(Maybe(vs[1]), Maybe(vs[2]))
		db.AddImplies(vs[0], vs[2])
		return vs[0]
	},
	func(db *DB) expr.Var {
		or := db.Or(Maybe(0), Maybe(2)).Var()
		db.newDerived(Def{Kind: DefCountGE, Args: []expr.Var{0, 1, 2}, D: 2})
		return or
	},
	func(db *DB) expr.Var {
		x := db.NewVar()
		db.AddImplies(x, 1)
		db.And(Maybe(x), Maybe(3))
		return x
	},
}

// flatDB builds the store of the given forkSteps in one DB, unforked.
func flatDB(steps ...int) *DB {
	db := NewDB()
	for _, s := range steps {
		forkSteps[s](db)
	}
	return db
}

// sameDB checks that got behaves as want on every accessor, and on
// every assignment of the base variables.
func sameDB(t *testing.T, name string, got, want *DB) {
	t.Helper()
	if got.NumVars() != want.NumVars() || got.NumConstraints() != want.NumConstraints() {
		t.Fatalf("%s: %d vars, %d constraints; flat store has %d, %d", name,
			got.NumVars(), got.NumConstraints(), want.NumVars(), want.NumConstraints())
	}
	for v := 0; v < want.NumVars(); v++ {
		if g, w := got.Def(expr.Var(v)), want.Def(expr.Var(v)); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: Def(b%d) = %+v, flat store has %+v", name, v, g, w)
		}
	}
	if !reflect.DeepEqual(got.Constraints(), want.Constraints()) {
		t.Errorf("%s: constraints differ from the flat store", name)
	}
	if g, w := got.BaseVars(), want.BaseVars(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: BaseVars = %v, flat store has %v", name, g, w)
	}
	if g, w := got.Check(), want.Check(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: Check = %+v, flat store has %+v", name, g, w)
	}
	base := want.BaseVars()
	for mask := 0; mask < 1<<len(base); mask++ {
		assign := map[expr.Var]uint8{}
		for i, v := range base {
			assign[v] = uint8(mask >> i & 1)
		}
		g, w := got.World(assign), want.World(assign)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: mask %d: World = %v, flat store has %v", name, mask, g, w)
		}
		full := make([]uint8, want.NumVars())
		for v, val := range assign {
			full[v] = val
		}
		got.Extend(full)
		if !reflect.DeepEqual(full, w) {
			t.Errorf("%s: mask %d: Extend = %v, flat store has %v", name, mask, full, w)
		}
		if got.Valid(w) != want.Valid(w) {
			t.Errorf("%s: mask %d: Valid = %v, flat store says %v", name, mask, got.Valid(w), want.Valid(w))
		}
		if got.DeterministicExtension(assign) != want.DeterministicExtension(assign) {
			t.Errorf("%s: mask %d: DeterministicExtension differs from the flat store", name, mask)
		}
	}
}

func TestForkIsolation(t *testing.T) {
	parent := flatDB(0)
	n, m := parent.NumVars(), parent.NumConstraints()
	cons := append([]expr.Constraint(nil), parent.Constraints()...)

	f1, f2 := parent.Fork(), parent.Fork()
	if v := forkSteps[1](f1); v != expr.Var(n) {
		t.Errorf("first fork's first variable is b%d, want b%d", v, n)
	}
	if v := forkSteps[2](f2); v != expr.Var(n) {
		t.Errorf("second fork's first variable is b%d, want b%d", v, n)
	}
	f12 := f1.Fork()
	if v := forkSteps[2](f12); v != expr.Var(f1.NumVars()) {
		t.Errorf("fork of a fork's first variable is b%d, want b%d", v, f1.NumVars())
	}

	if parent.NumVars() != n || parent.NumConstraints() != m || !reflect.DeepEqual(parent.Constraints(), cons) {
		t.Errorf("parent changed: %d vars, %d constraints; forked at %d, %d",
			parent.NumVars(), parent.NumConstraints(), n, m)
	}
	sameDB(t, "parent", parent, flatDB(0))
	sameDB(t, "first fork", f1, flatDB(0, 1))
	sameDB(t, "second fork", f2, flatDB(0, 2))
	sameDB(t, "fork of the first fork", f12, flatDB(0, 1, 2))
}
