// Package pmap implements a persistent (immutable, path-copying) ordered
// map keyed by int32, used for abstract memories L# -> V#.
//
// Abstract-interpretation fixpoints keep one abstract state per control
// point and repeatedly join and compare them; persistence lets states share
// structure so that a join of nearly-equal memories allocates only along the
// changed paths. The implementation is a weight-balanced binary search tree
// ("bounded balance" trees in the style of Adams), which supports efficient
// Insert/Get and, crucially, Merge of two maps with a user combiner, which is
// the workhorse of abstract-state join and ordering tests.
package pmap

// Map is an immutable map from int32 keys to values of type V.
// The zero value (and Empty[V]()) is the empty map. All operations return
// new maps and never mutate their receiver.
type Map[V any] struct {
	root *node[V]
}

type node[V any] struct {
	key         int32
	val         V
	size        int32 // number of entries in this subtree
	left, right *node[V]
}

// Empty returns the empty map.
func Empty[V any]() Map[V] { return Map[V]{} }

// Len returns the number of entries.
func (m Map[V]) Len() int { return int(size(m.root)) }

// IsEmpty reports whether the map has no entries.
func (m Map[V]) IsEmpty() bool { return m.root == nil }

func size[V any](n *node[V]) int32 {
	if n == nil {
		return 0
	}
	return n.size
}

// weight ratio for the bounded-balance invariant: neither subtree may hold
// more than ratio times the entries of its sibling (plus one).
const ratio = 3

func mk[V any](key int32, val V, l, r *node[V]) *node[V] {
	return &node[V]{key: key, val: val, size: 1 + size(l) + size(r), left: l, right: r}
}

// balance rebuilds a node whose children differ by at most one insertion or
// deletion from balanced, restoring the weight invariant with single or
// double rotations.
func balance[V any](key int32, val V, l, r *node[V]) *node[V] {
	ln, rn := size(l), size(r)
	switch {
	case ln+rn <= 1:
		return mk(key, val, l, r)
	case rn > ratio*ln: // right too heavy
		if size(r.left) < size(r.right) {
			return singleLeft(key, val, l, r)
		}
		return doubleLeft(key, val, l, r)
	case ln > ratio*rn: // left too heavy
		if size(l.right) < size(l.left) {
			return singleRight(key, val, l, r)
		}
		return doubleRight(key, val, l, r)
	default:
		return mk(key, val, l, r)
	}
}

func singleLeft[V any](key int32, val V, l, r *node[V]) *node[V] {
	return mk(r.key, r.val, mk(key, val, l, r.left), r.right)
}

func singleRight[V any](key int32, val V, l, r *node[V]) *node[V] {
	return mk(l.key, l.val, l.left, mk(key, val, l.right, r))
}

func doubleLeft[V any](key int32, val V, l, r *node[V]) *node[V] {
	rl := r.left
	return mk(rl.key, rl.val, mk(key, val, l, rl.left), mk(r.key, r.val, rl.right, r.right))
}

func doubleRight[V any](key int32, val V, l, r *node[V]) *node[V] {
	lr := l.right
	return mk(lr.key, lr.val, mk(l.key, l.val, l.left, lr.left), mk(key, val, lr.right, r))
}

// Get returns the value stored at key and whether it is present.
func (m Map[V]) Get(key int32) (V, bool) {
	n := m.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Insert returns a map with key bound to val, replacing any existing binding.
func (m Map[V]) Insert(key int32, val V) Map[V] {
	return Map[V]{root: insert(m.root, key, val)}
}

func insert[V any](n *node[V], key int32, val V) *node[V] {
	if n == nil {
		return mk(key, val, nil, nil)
	}
	switch {
	case key < n.key:
		return balance(n.key, n.val, insert(n.left, key, val), n.right)
	case key > n.key:
		return balance(n.key, n.val, n.left, insert(n.right, key, val))
	default:
		return mk(key, val, n.left, n.right)
	}
}

// Update returns a map where the binding for key is f(old, ok); if key was
// absent, ok is false and old is the zero value. This avoids a separate
// Get+Insert pair (a single traversal).
func (m Map[V]) Update(key int32, f func(old V, ok bool) V) Map[V] {
	return Map[V]{root: update(m.root, key, f)}
}

func update[V any](n *node[V], key int32, f func(V, bool) V) *node[V] {
	if n == nil {
		var zero V
		return mk(key, f(zero, false), nil, nil)
	}
	switch {
	case key < n.key:
		return balance(n.key, n.val, update(n.left, key, f), n.right)
	case key > n.key:
		return balance(n.key, n.val, n.left, update(n.right, key, f))
	default:
		return mk(key, f(n.val, true), n.left, n.right)
	}
}

// Delete returns a map without any binding for key.
func (m Map[V]) Delete(key int32) Map[V] {
	if _, ok := m.Get(key); !ok {
		return m
	}
	return Map[V]{root: del(m.root, key)}
}

func del[V any](n *node[V], key int32) *node[V] {
	if n == nil {
		return nil
	}
	switch {
	case key < n.key:
		return balance(n.key, n.val, del(n.left, key), n.right)
	case key > n.key:
		return balance(n.key, n.val, n.left, del(n.right, key))
	default:
		return glue(n.left, n.right)
	}
}

// glue joins two trees where every key in l is less than every key in r.
func glue[V any](l, r *node[V]) *node[V] {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case size(l) > size(r):
		k, v, l2 := deleteMax(l)
		return balance(k, v, l2, r)
	default:
		k, v, r2 := deleteMin(r)
		return balance(k, v, l, r2)
	}
}

func deleteMin[V any](n *node[V]) (int32, V, *node[V]) {
	if n.left == nil {
		return n.key, n.val, n.right
	}
	k, v, l := deleteMin(n.left)
	return k, v, balance(n.key, n.val, l, n.right)
}

func deleteMax[V any](n *node[V]) (int32, V, *node[V]) {
	if n.right == nil {
		return n.key, n.val, n.left
	}
	k, v, r := deleteMax(n.right)
	return k, v, balance(n.key, n.val, n.left, r)
}

// Range calls f for each key/value pair in ascending key order until f
// returns false.
func (m Map[V]) Range(f func(key int32, val V) bool) {
	rng(m.root, f)
}

func rng[V any](n *node[V], f func(int32, V) bool) bool {
	if n == nil {
		return true
	}
	return rng(n.left, f) && f(n.key, n.val) && rng(n.right, f)
}

// Keys returns the keys in ascending order.
func (m Map[V]) Keys() []int32 {
	out := make([]int32, 0, m.Len())
	m.Range(func(k int32, _ V) bool { out = append(out, k); return true })
	return out
}

// FromSorted builds a map from parallel slices of strictly increasing keys
// and their values in one pass. The resulting tree is perfectly
// weight-balanced and construction is O(n), versus O(n log n) for repeated
// Insert — the fast path for rebuilding a map from an ordered traversal
// (memory restriction at call boundaries does exactly that).
// FromSorted panics if the keys are not strictly increasing.
func FromSorted[K ~int32, V any](keys []K, vals []V) Map[V] {
	if len(keys) != len(vals) {
		panic("pmap: FromSorted slice lengths differ")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			panic("pmap: FromSorted keys not strictly increasing")
		}
	}
	return Map[V]{root: fromSorted(keys, vals)}
}

func fromSorted[K ~int32, V any](keys []K, vals []V) *node[V] {
	if len(keys) == 0 {
		return nil
	}
	mid := len(keys) / 2
	return mk(int32(keys[mid]), vals[mid], fromSorted(keys[:mid], vals[:mid]), fromSorted(keys[mid+1:], vals[mid+1:]))
}

// Merge computes the union of a and b. For keys present in both maps the
// combiner both(k, av, bv) decides the result; keys present on one side only
// are kept as-is. Merge shares subtrees aggressively: if both sides alias
// the same subtree, it is reused without visiting it (the combiner is
// assumed to satisfy both(k, v, v) == v, which holds for lattice joins).
func Merge[V any](a, b Map[V], both func(k int32, av, bv V) V) Map[V] {
	return Map[V]{root: merge(a.root, b.root, both)}
}

func merge[V any](a, b *node[V], both func(int32, V, V) V) *node[V] {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a == b:
		return a // shared subtree: identical contents
	}
	// Split b around a.key, recurse, and rejoin.
	bl, bv, bFound, br := split(b, a.key)
	l := merge(a.left, bl, both)
	r := merge(a.right, br, both)
	v := a.val
	if bFound {
		v = both(a.key, a.val, bv)
	}
	return join(a.key, v, l, r)
}

// ChangeCombiner resolves a key present in both maps for MergeChanged. It
// returns the combined value nv plus two flags: reuse reports that av itself
// is the result — physically; nv is then ignored, and the caller promises
// that the plain combined value would be indistinguishable from av — and
// changed reports that the result differs semantically from av. reuse
// implies !changed.
type ChangeCombiner[V any] func(k int32, av, bv V) (nv V, reuse, changed bool)

// MergeChanged computes the union of a and b exactly like Merge (keys on one
// side only are kept as-is; common keys go through the combiner) and
// simultaneously reports whether the result differs semantically from a,
// treating keys absent from a as bottom: a key only in b counts as a change
// iff nonBot(bv). This fuses the join-then-Eq idiom of fixpoint loops into
// one traversal, and like Merge it returns a's nodes unchanged wherever the
// combiner reuses every value and b contributes no new key.
func MergeChanged[V any](a, b Map[V], both ChangeCombiner[V], nonBot func(V) bool) (Map[V], bool) {
	r, ch := mergeChanged(a.root, b.root, both, nonBot)
	return Map[V]{root: r}, ch
}

func mergeChanged[V any](a, b *node[V], both ChangeCombiner[V], nonBot func(V) bool) (*node[V], bool) {
	switch {
	case a == nil:
		return b, anyValue(b, nonBot)
	case b == nil:
		return a, false
	case a == b:
		return a, false // shared subtree: identical contents
	}
	bl, bv, bFound, br := split(b, a.key)
	l, lch := mergeChanged(a.left, bl, both, nonBot)
	r, rch := mergeChanged(a.right, br, both, nonBot)
	v := a.val
	reuse := true
	vch := false
	if bFound {
		var nv V
		nv, reuse, vch = both(a.key, a.val, bv)
		if !reuse {
			v = nv
		}
	}
	if reuse && l == a.left && r == a.right {
		return a, lch || rch
	}
	return join(a.key, v, l, r), lch || rch || vch
}

// anyValue reports whether pred holds for any value in the subtree.
func anyValue[V any](n *node[V], pred func(V) bool) bool {
	if n == nil {
		return false
	}
	return pred(n.val) || anyValue(n.left, pred) || anyValue(n.right, pred)
}

// IdentCombiner resolves a key present in both maps for MergeIdent: it
// returns the combined value nv, or reuse == true to keep av physically
// (under the same indistinguishability promise as ChangeCombiner).
type IdentCombiner[V any] func(k int32, av, bv V) (nv V, reuse bool)

// MergeIdent is Merge with identity preservation: whenever the combiner
// reuses every common value of a subtree of a and b contributes no new key
// to it, that subtree of a is returned as-is, so a join that changes nothing
// returns a itself and allocates nothing.
func MergeIdent[V any](a, b Map[V], both IdentCombiner[V]) Map[V] {
	return Map[V]{root: mergeIdent(a.root, b.root, both)}
}

func mergeIdent[V any](a, b *node[V], both IdentCombiner[V]) *node[V] {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a == b:
		return a // shared subtree: identical contents
	}
	bl, bv, bFound, br := split(b, a.key)
	l := mergeIdent(a.left, bl, both)
	r := mergeIdent(a.right, br, both)
	v := a.val
	reuse := true
	if bFound {
		var nv V
		nv, reuse = both(a.key, a.val, bv)
		if !reuse {
			v = nv
		}
	}
	if reuse && l == a.left && r == a.right {
		return a
	}
	return join(a.key, v, l, r)
}

// CombineLeft returns a map over exactly a's domain: keys also present in b
// are combined through f (reuse as in IdentCombiner), keys only in a keep
// their binding, keys only in b are dropped. When every binding is reused
// the result is a itself. Note the combiner runs even on physically shared
// subtrees — value types whose combiner is not the identity on equal
// arguments (representation-refreshing octagon narrowing) rely on that.
func CombineLeft[V any](a, b Map[V], f func(k int32, av, bv V) (nv V, reuse bool)) Map[V] {
	return Map[V]{root: combineLeft(a.root, b.root, f)}
}

func combineLeft[V any](a, b *node[V], f func(int32, V, V) (V, bool)) *node[V] {
	if a == nil || b == nil {
		return a
	}
	bl, bv, bFound, br := split(b, a.key)
	l := combineLeft(a.left, bl, f)
	r := combineLeft(a.right, br, f)
	v := a.val
	reuse := true
	if bFound {
		var nv V
		nv, reuse = f(a.key, a.val, bv)
		if !reuse {
			v = nv
		}
	}
	if reuse && l == a.left && r == a.right {
		return a
	}
	// The result has exactly a's shape, so mk preserves balance without
	// rebalancing.
	return mk(a.key, v, l, r)
}

// UpdateIdent is Update with identity preservation: f additionally reports
// whether the existing value may be kept, and when it does (for a present
// key) the receiver is returned unchanged. For an absent key the binding
// f(zero, false) is always inserted, keep flag notwithstanding — absent and
// explicitly-bound bottom are distinct (domains stay stable across joins).
func (m Map[V]) UpdateIdent(key int32, f func(old V, ok bool) (V, bool)) Map[V] {
	root, same := updateIdent(m.root, key, f)
	if same {
		return m
	}
	return Map[V]{root: root}
}

func updateIdent[V any](n *node[V], key int32, f func(V, bool) (V, bool)) (*node[V], bool) {
	if n == nil {
		var zero V
		nv, _ := f(zero, false)
		return mk(key, nv, nil, nil), false
	}
	switch {
	case key < n.key:
		l, same := updateIdent(n.left, key, f)
		if same {
			return n, true
		}
		return balance(n.key, n.val, l, n.right), false
	case key > n.key:
		r, same := updateIdent(n.right, key, f)
		if same {
			return n, true
		}
		return balance(n.key, n.val, n.left, r), false
	default:
		nv, keep := f(n.val, true)
		if keep {
			return n, true
		}
		return mk(key, nv, n.left, n.right), false
	}
}

// Same reports whether a and b are physically the same tree (O(1)). Same
// implies equal contents; the converse need not hold.
func Same[V any](a, b Map[V]) bool { return a.root == b.root }

// split partitions n into keys < key, the value at key (if present), and
// keys > key. When the split is trivial — every key of a subtree falls on one
// side — the subtree is returned as-is instead of being rebuilt, so splitting
// a tree whose range does not straddle key allocates nothing. That identity
// is what keeps merge allocation-free when one side is (a shared subtree of)
// the other.
func split[V any](n *node[V], key int32) (l *node[V], v V, found bool, r *node[V]) {
	if n == nil {
		return nil, v, false, nil
	}
	switch {
	case key < n.key:
		ll, lv, lf, lr := split(n.left, key)
		if lr == n.left {
			return ll, lv, lf, n
		}
		return ll, lv, lf, join(n.key, n.val, lr, n.right)
	case key > n.key:
		rl, rv, rf, rr := split(n.right, key)
		if rl == n.right {
			return n, rv, rf, rr
		}
		return join(n.key, n.val, n.left, rl), rv, rf, rr
	default:
		return n.left, n.val, true, n.right
	}
}

// join builds a balanced tree from l, (key,val), r where keys of l < key <
// keys of r, but l and r may have arbitrarily different sizes.
func join[V any](key int32, val V, l, r *node[V]) *node[V] {
	switch {
	case l == nil:
		return insertMin(r, key, val)
	case r == nil:
		return insertMax(l, key, val)
	case ratio*size(l) < size(r):
		return balance(r.key, r.val, join(key, val, l, r.left), r.right)
	case ratio*size(r) < size(l):
		return balance(l.key, l.val, l.left, join(key, val, l.right, r))
	default:
		return mk(key, val, l, r)
	}
}

func insertMin[V any](n *node[V], key int32, val V) *node[V] {
	if n == nil {
		return mk(key, val, nil, nil)
	}
	return balance(n.key, n.val, insertMin(n.left, key, val), n.right)
}

func insertMax[V any](n *node[V], key int32, val V) *node[V] {
	if n == nil {
		return mk(key, val, nil, nil)
	}
	return balance(n.key, n.val, n.left, insertMax(n.right, key, val))
}

// ForAll2 walks a and b in parallel and reports whether pred holds for every
// key of the union of their domains. For a key present on one side only, the
// missing side is reported with ok == false. Shared subtrees are skipped
// under the assumption pred(k, v, true, v, true) == true (reflexivity, which
// holds for lattice orderings).
func ForAll2[V any](a, b Map[V], pred func(k int32, av V, aok bool, bv V, bok bool) bool) bool {
	return forAll2(a.root, b.root, pred)
}

func forAll2[V any](a, b *node[V], pred func(int32, V, bool, V, bool) bool) bool {
	var zero V
	switch {
	case a == b:
		return true
	case a == nil:
		ok := true
		rng(b, func(k int32, v V) bool {
			ok = pred(k, zero, false, v, true)
			return ok
		})
		return ok
	case b == nil:
		ok := true
		rng(a, func(k int32, v V) bool {
			ok = pred(k, v, true, zero, false)
			return ok
		})
		return ok
	}
	bl, bv, bFound, br := split(b, a.key)
	if !forAll2(a.left, bl, pred) {
		return false
	}
	if !pred(a.key, a.val, true, bv, bFound) {
		return false
	}
	return forAll2(a.right, br, pred)
}

// depth returns the height of the tree (for balance tests).
func (m Map[V]) depth() int { return depth(m.root) }

func depth[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
