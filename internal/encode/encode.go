// Package encode turns anonymized set-valued data into LICM databases,
// implementing the Appendix of the paper:
//
//   - generalization (k-anonymity, k^m-anonymity): each generalized
//     item becomes one maybe-tuple per covered leaf plus a
//     "sum >= 1" cardinality constraint (Appendix A, Figure 2(c));
//   - permutation (safe (k,l) bipartite grouping): TransGroup and
//     ItemGroup relations hold one maybe-tuple per (entity, node) pair
//     within a group, under bijection constraints (Appendix B,
//     Figures 8/9); the graph itself is certain;
//   - suppression: transactions with s suppressed items get one
//     maybe-tuple per globally suppressed candidate plus a
//     "sum = s" constraint (Appendix C).
//
// Alongside the relations, encoders record the base uncertainty
// structure as sampling groups so the Monte-Carlo baseline
// (internal/mc) can draw uniform valid worlds directly.
package encode

import (
	"licm/internal/anon"
	"licm/internal/core"
	"licm/internal/dataset"
	"licm/internal/expr"
)

// GroupKind classifies a base uncertainty group for samplers.
type GroupKind uint8

// Group kinds.
const (
	// SubsetGE1: any non-empty subset of Vars is true (generalized
	// item).
	SubsetGE1 GroupKind = iota
	// Permutation: Matrix[i][j] true iff entity i maps to slot j
	// under a uniformly unknown bijection.
	Permutation
	// ExactCount: exactly Count of Vars are true (suppression).
	ExactCount
)

// Group describes one independent unit of base uncertainty.
type Group struct {
	Kind   GroupKind
	Vars   []expr.Var   // SubsetGE1, ExactCount
	Count  int          // ExactCount
	Matrix [][]expr.Var // Permutation: len k rows × k cols
}

// Encoded is an anonymized dataset in LICM form.
type Encoded struct {
	DB *core.DB
	// Trans is the certain TRANS(TID, Location) relation.
	Trans *core.Relation
	// Items is the certain ITEM(Item, Price) relation (catalog).
	Items *core.Relation
	// TransItem is the possibilistic TRANSITEM(TID, Item) relation.
	// It is populated by the generalization and suppression encoders;
	// the bipartite encoder leaves it nil (membership must be derived
	// by joining the group relations with the graph).
	TransItem *core.Relation
	// TransGroup, ItemGroup and Graph are only set by the bipartite
	// encoder: TRANSGROUP(TID, LNodeID), ITEMGROUP(Item, RNodeID) and
	// the certain G(LNodeID, RNodeID).
	TransGroup *core.Relation
	ItemGroup  *core.Relation
	Graph      *core.Relation
	// Groups records the base uncertainty structure for samplers.
	Groups []Group
}

// Fork returns an encoding that shares enc's relations and sampling
// groups and records into a fork of its DB (core.DB.Fork), so a query
// can grow its own store on top of one frozen base encoding. Query
// operators only read relations and only the encoders append groups,
// so forks of one encoding that nothing writes may be used
// concurrently.
func (enc *Encoded) Fork() *Encoded {
	f := *enc
	f.DB = enc.DB.Fork()
	return &f
}

// itemsRelation builds the certain catalog relation.
func itemsRelation(items []dataset.Item) *core.Relation {
	r := core.NewRelation("Item", "Item", "Price")
	for _, it := range items {
		r.Insert(core.Certain, core.IntVal(int64(it.ID)), core.IntVal(it.Price))
	}
	return r
}

// Generalized encodes the output of a generalization-based anonymizer
// (Appendix A). Exact (leaf) items become certain tuples; a
// generalized node covering leaves I1..Ik becomes k maybe-tuples with
// the constraint b1 + ... + bk >= 1.
func Generalized(g *anon.Generalized, items []dataset.Item) *Encoded {
	db := core.NewDB()
	enc := &Encoded{
		DB:        db,
		Trans:     core.NewRelation("Trans", "TID", "Location"),
		Items:     itemsRelation(items),
		TransItem: core.NewRelation("TransItem", "TID", "Item"),
	}
	for _, t := range g.Trans {
		tid := core.IntVal(int64(t.ID))
		enc.Trans.Insert(core.Certain, tid, core.IntVal(t.Location))
		for _, n := range t.Nodes {
			if g.H.IsLeaf(n) {
				enc.TransItem.Insert(core.Certain, tid, core.IntVal(int64(n)))
				continue
			}
			leaves := g.H.LeavesUnder(n)
			vars := db.NewVars(len(leaves))
			for i, leaf := range leaves {
				enc.TransItem.Insert(core.Maybe(vars[i]), tid, core.IntVal(int64(leaf)))
			}
			db.AddCardinality(vars, 1, -1)
			enc.Groups = append(enc.Groups, Group{Kind: SubsetGE1, Vars: vars})
		}
	}
	return enc
}

// Bipartite encodes a safe (k,l) grouping (Appendix B). Node ids in
// the published graph reuse the original transaction/item ids — the
// anonymization hides the mapping, not the graph — so LNodeID values
// range over transaction ids and RNodeID values over item ids, with
// the true mapping an unknown bijection within each group.
func Bipartite(d *dataset.Dataset, bg *anon.BipartiteGroups) *Encoded {
	db := core.NewDB()
	enc := &Encoded{
		DB:         db,
		Trans:      core.NewRelation("Trans", "TID", "Location"),
		Items:      itemsRelation(d.Items),
		TransGroup: core.NewRelation("TransGroup", "TID", "LNodeID"),
		ItemGroup:  core.NewRelation("ItemGroup", "Item", "RNodeID"),
		Graph:      core.NewRelation("G", "LNodeID", "RNodeID"),
	}
	for _, t := range d.Trans {
		enc.Trans.Insert(core.Certain, core.IntVal(int64(t.ID)), core.IntVal(t.Location))
		for _, it := range t.Items {
			enc.Graph.Insert(core.Certain, core.IntVal(int64(t.ID)), core.IntVal(int64(it)))
		}
	}
	for _, grp := range bg.TransGroups {
		k := len(grp)
		matrix := make([][]expr.Var, k)
		for i := range grp {
			matrix[i] = db.NewVars(k)
			for j := range grp {
				enc.TransGroup.Insert(core.Maybe(matrix[i][j]),
					core.IntVal(int64(d.Trans[grp[i]].ID)),
					core.IntVal(int64(d.Trans[grp[j]].ID)))
			}
		}
		addBijection(db, matrix)
		enc.Groups = append(enc.Groups, Group{Kind: Permutation, Matrix: matrix})
	}
	for _, grp := range bg.ItemGroups {
		l := len(grp)
		matrix := make([][]expr.Var, l)
		for i := range grp {
			matrix[i] = db.NewVars(l)
			for j := range grp {
				enc.ItemGroup.Insert(core.Maybe(matrix[i][j]),
					core.IntVal(int64(grp[i])),
					core.IntVal(int64(grp[j])))
			}
		}
		addBijection(db, matrix)
		enc.Groups = append(enc.Groups, Group{Kind: Permutation, Matrix: matrix})
	}
	return enc
}

// addBijection emits the permutation constraints of Example 3 /
// Figure 9: every row and every column of the matrix sums to one.
func addBijection(db *core.DB, m [][]expr.Var) {
	k := len(m)
	for i := 0; i < k; i++ {
		db.AddExactlyOne(m[i])
		col := make([]expr.Var, k)
		for j := 0; j < k; j++ {
			col[j] = m[j][i]
		}
		db.AddExactlyOne(col)
	}
}

// Suppressed encodes suppression-based output (Appendix C): kept items
// are certain; a transaction with s > 0 suppressed items gets one
// maybe-tuple per global candidate with the cardinality constraint
// "exactly s of them".
func Suppressed(s *anon.Suppressed, items []dataset.Item) *Encoded {
	db := core.NewDB()
	enc := &Encoded{
		DB:        db,
		Trans:     core.NewRelation("Trans", "TID", "Location"),
		Items:     itemsRelation(items),
		TransItem: core.NewRelation("TransItem", "TID", "Item"),
	}
	for _, t := range s.Trans {
		tid := core.IntVal(int64(t.ID))
		enc.Trans.Insert(core.Certain, tid, core.IntVal(t.Location))
		for _, it := range t.Kept {
			enc.TransItem.Insert(core.Certain, tid, core.IntVal(int64(it)))
		}
		if t.NumSuppressed == 0 {
			continue
		}
		vars := db.NewVars(len(s.Candidates))
		for i, it := range s.Candidates {
			enc.TransItem.Insert(core.Maybe(vars[i]), tid, core.IntVal(int64(it)))
		}
		db.AddCardinality(vars, t.NumSuppressed, t.NumSuppressed)
		enc.Groups = append(enc.Groups, Group{Kind: ExactCount, Vars: vars, Count: t.NumSuppressed})
	}
	return enc
}

// BuildTransItem derives the possibilistic TRANSITEM(TID, Item)
// relation for a bipartite encoding, restricted to the given
// transaction and item subsets (nil means no restriction): transaction
// t contains item i iff for some edge (L,R) of the graph, t maps to L
// and i maps to R. It is the LICM pipeline
// π_{TID,Item}(σ(TransGroup ⋈ G ⋈ ItemGroup)) and creates the
// corresponding AND/OR lineage variables in the encoded DB.
func (enc *Encoded) BuildTransItem(tids map[int64]bool, itemIDs map[int64]bool) *core.Relation {
	tg := enc.TransGroup
	if tids != nil {
		tg = core.Select(tg, func(r core.Row) bool { return tids[r.Int("TID")] })
	}
	ig := enc.ItemGroup
	if itemIDs != nil {
		ig = core.Select(ig, func(r core.Row) bool { return itemIDs[r.Int("Item")] })
	}
	j1 := core.Join(enc.DB, tg, enc.Graph, "LNodeID") // (TID, LNodeID, RNodeID)
	j2 := core.Join(enc.DB, j1, ig, "RNodeID")        // + Item... join col order: ig has (Item, RNodeID)
	proj := core.Project(enc.DB, j2, "TID", "Item")   // OR over alternative node pairs
	proj.Name = "TransItem"
	return proj
}
