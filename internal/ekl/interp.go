package ekl

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"everest/internal/tensor"
)

// Binding supplies concrete tensors and scalars for one kernel execution.
type Binding struct {
	Tensors map[string]*tensor.Tensor
	Scalars map[string]float64
}

// Shapes is everything compiling a kernel needs from a binding: the
// extents the symbolic dimensions unified with, the iteration space of
// every statement, and the shape of every tensor name (inputs,
// temporaries and outputs). Kernel.Infer derives it without computing the
// kernel; Kernel.Run carries the same record in its Result.
type Shapes struct {
	// Dims maps symbolic dimension names to the concrete extents they were
	// unified with at bind time.
	Dims map[string]int
	// Trace records, per statement, the inferred iteration space. The MLIR
	// lowering uses it to emit concrete loop nests.
	Trace []StmtInfo
	// Shape maps every bound or assigned tensor name to its final shape.
	Shape map[string][]int
}

// Size returns the element count of the named tensor and whether the
// name is known.
func (s *Shapes) Size(name string) (int, bool) {
	shape, ok := s.Shape[name]
	if !ok {
		return 0, false
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n, true
}

// Result holds the tensors produced by a kernel run, plus the Shapes
// record the run inferred on the way.
type Result struct {
	// Outputs maps declared output names to their tensors.
	Outputs map[string]*tensor.Tensor
	// All maps every assigned name (including temporaries) to its tensor,
	// useful for debugging and for the lowering tests.
	All map[string]*tensor.Tensor
	Shapes
}

// StmtInfo records the iteration space inferred for one statement.
type StmtInfo struct {
	Name    string         // assigned tensor
	Free    []string       // free indices in iteration order
	Extents map[string]int // extent of every index (free and summed)
	SumIdx  []string       // reduction indices, if any
}

// Run type-checks the kernel against the binding and interprets it. This is
// the reference semantics of EKL: the HLS path must produce numerically
// identical results (experiment E1). Each statement is planned (iteration
// space and target shape, shared with Infer) and then evaluated element by
// element.
func (k *Kernel) Run(b Binding) (*Result, error) {
	env, err := k.bind(b)
	if err != nil {
		return nil, err
	}
	for _, s := range k.Stmts {
		if err := env.exec(s, execStore); err != nil {
			return nil, fmt.Errorf("ekl: kernel %q line %d: %w", k.Name, s.Line, err)
		}
	}
	res := &Result{Outputs: make(map[string]*tensor.Tensor), All: env.tensors, Shapes: env.shapes}
	for _, out := range k.Outputs {
		t, ok := env.tensors[out.Name]
		if !ok {
			return nil, fmt.Errorf("ekl: kernel %q: output %q never assigned", k.Name, out.Name)
		}
		res.Outputs[out.Name] = t
	}
	return res, nil
}

// Infer type-checks the kernel against the binding and infers every
// statement's iteration space and every tensor's shape without computing
// the kernel, so its cost follows the program, not the data. It fails
// exactly when Run fails on the same binding, with the same error.
//
// Only values read by a computed subscript (anything but a bare index
// variable, e.g. the gather v[t[x], x] or an iparam subscript) can make a
// statement fail at one element and not another. Statements with such a
// subscript still run every element, and the statements whose results
// such a subscript reads, directly or through other statements, still
// compute their values. Every other statement can only fail the same way
// at every element (an unbound identifier, a bare tensor of rank > 0, an
// unknown function), so evaluating one symbolic element — and one term of
// each reduction — finds the error Run would, when the iteration space is
// non-empty.
func (k *Kernel) Infer(b Binding) (*Shapes, error) {
	env, err := k.bind(b)
	if err != nil {
		return nil, err
	}
	for i, mode := range k.inferModes() {
		s := k.Stmts[i]
		if err := env.exec(s, mode); err != nil {
			return nil, fmt.Errorf("ekl: kernel %q line %d: %w", k.Name, s.Line, err)
		}
	}
	sh := env.shapes // a copy, so the caller does not keep the tensors alive
	return &sh, nil
}

// execMode says how much of a statement's element loop runs.
type execMode int

const (
	// execProbe evaluates one symbolic element and stores nothing.
	execProbe execMode = iota
	// execCheck evaluates every element for its errors and stores nothing.
	execCheck
	// execStore evaluates every element and stores the result.
	execStore
)

// inferModes decides how Infer runs each statement: execCheck for a
// statement with a computed subscript, execStore for every statement
// assigning a name whose values a computed subscript reads (directly or
// through other stored statements), execProbe otherwise. Which names are
// tensors or parameters at each statement — and so which subscripts are
// bare index variables — is fixed by the declarations and the statement
// order, so this needs no binding.
func (k *Kernel) inferModes() []execMode {
	scope := make(map[string]bool, len(k.Inputs)+len(k.Params)+len(k.Stmts))
	for _, in := range k.Inputs {
		scope[in.Name] = true
	}
	for _, p := range k.Params {
		scope[p.Name] = true
	}
	modes := make([]execMode, len(k.Stmts))
	reads := make([][]string, len(k.Stmts))
	needed := make(map[string]bool)
	readsOf := func(x Expr, into func(string)) {
		walkExpr(x, func(y Expr) {
			if id, ok := y.(IdentRef); ok && scope[id.Name] {
				into(id.Name)
			}
		})
	}
	for i, s := range k.Stmts {
		index := func(ix Expr) {
			if id, ok := ix.(IdentRef); ok && !scope[id.Name] {
				return // bare index variable: in range by construction
			}
			modes[i] = execCheck
			readsOf(ix, func(name string) { needed[name] = true })
		}
		for _, le := range s.LHS {
			index(le)
			readsOf(le, func(name string) { reads[i] = append(reads[i], name) })
		}
		walkExpr(s.RHS, func(x Expr) {
			if sub, ok := x.(SubscriptExpr); ok {
				for _, ix := range sub.Indices {
					index(ix)
				}
			}
		})
		readsOf(s.RHS, func(name string) { reads[i] = append(reads[i], name) })
		scope[s.Name] = true
	}
	for changed := true; changed; {
		changed = false
		for i, s := range k.Stmts {
			if needed[s.Name] && modes[i] != execStore {
				modes[i] = execStore
				changed = true
				for _, name := range reads[i] {
					needed[name] = true
				}
			}
		}
	}
	return modes
}

// Check performs the static (binding-independent) checks: unique names,
// outputs assigned, pair expressions only at statement level, subscript
// bases are identifiers.
func (k *Kernel) Check() error {
	seen := make(map[string]string)
	declare := func(name, what string) error {
		if prev, ok := seen[name]; ok {
			return fmt.Errorf("ekl: kernel %q: %s %q redeclares %s", k.Name, what, name, prev)
		}
		seen[name] = what
		return nil
	}
	for _, in := range k.Inputs {
		if err := declare(in.Name, "input"); err != nil {
			return err
		}
		if len(in.Dims) == 0 {
			return fmt.Errorf("ekl: kernel %q: input %q has no dimensions", k.Name, in.Name)
		}
	}
	for _, p := range k.Params {
		if err := declare(p.Name, "param"); err != nil {
			return err
		}
	}
	assigned := make(map[string]bool)
	for _, s := range k.Stmts {
		if seen[s.Name] == "input" || seen[s.Name] == "param" {
			return fmt.Errorf("ekl: kernel %q line %d: cannot assign to %s %q", k.Name, s.Line, seen[s.Name], s.Name)
		}
		assigned[s.Name] = true
		var bad error
		// A pair constructor is only legal as the full statement RHS; any
		// pair nested below the root, or in an LHS subscript, is an error.
		rootsToWalk := append([]Expr{s.RHS}, s.LHS...)
		if p, ok := s.RHS.(PairExpr); ok {
			rootsToWalk = append([]Expr{p.A, p.B}, s.LHS...)
		}
		for _, root := range rootsToWalk {
			walkExpr(root, func(e Expr) {
				if bad != nil {
					return
				}
				switch t := e.(type) {
				case PairExpr:
					bad = fmt.Errorf("ekl: kernel %q line %d: pair [a, b] is only allowed as a full statement right-hand side", k.Name, s.Line)
				case SubscriptExpr:
					if _, ok := t.Base.(IdentRef); !ok {
						bad = fmt.Errorf("ekl: kernel %q line %d: subscript base must be a tensor name", k.Name, s.Line)
					}
				}
			})
		}
		if bad != nil {
			return bad
		}
	}
	for _, out := range k.Outputs {
		if !assigned[out.Name] {
			return fmt.Errorf("ekl: kernel %q: output %q is never assigned", k.Name, out.Name)
		}
	}
	return nil
}

// bind validates the binding against the declarations and unifies symbolic
// dimension extents.
func (k *Kernel) bind(b Binding) (*evalEnv, error) {
	if err := k.Check(); err != nil {
		return nil, err
	}
	env := &evalEnv{
		kernel:  k,
		tensors: make(map[string]*tensor.Tensor),
		scalars: make(map[string]float64),
		shapes: Shapes{
			Dims:  make(map[string]int),
			Shape: make(map[string][]int),
		},
	}
	dims := env.shapes.Dims
	for _, in := range k.Inputs {
		t, ok := b.Tensors[in.Name]
		if !ok {
			return nil, fmt.Errorf("ekl: kernel %q: missing input tensor %q", k.Name, in.Name)
		}
		if t.Rank() != len(in.Dims) {
			return nil, fmt.Errorf("ekl: kernel %q: input %q has rank %d, declared %d",
				k.Name, in.Name, t.Rank(), len(in.Dims))
		}
		for d, dim := range in.Dims {
			got := t.Shape()[d]
			if dim.Sym != "" {
				if prev, ok := dims[dim.Sym]; ok && prev != got {
					return nil, fmt.Errorf("ekl: kernel %q: dimension %s bound to both %d and %d",
						k.Name, dim.Sym, prev, got)
				}
				dims[dim.Sym] = got
			} else if dim.Size != got {
				return nil, fmt.Errorf("ekl: kernel %q: input %q dim %d is %d, declared %d",
					k.Name, in.Name, d, got, dim.Size)
			}
		}
		env.tensors[in.Name] = t
		env.shapes.Shape[in.Name] = slices.Clone(t.Shape())
	}
	for _, p := range k.Params {
		v, ok := b.Scalars[p.Name]
		if !ok {
			if !p.HasDef {
				return nil, fmt.Errorf("ekl: kernel %q: missing parameter %q", k.Name, p.Name)
			}
			v = p.Default
		}
		if p.IsInt && v != math.Trunc(v) {
			return nil, fmt.Errorf("ekl: kernel %q: iparam %q must be integral, got %g", k.Name, p.Name, v)
		}
		env.scalars[p.Name] = v
	}
	return env, nil
}

// evalEnv is the mutable interpreter state.
type evalEnv struct {
	kernel *Kernel
	// shapes holds every tensor name in scope (shapes.Shape), the bound
	// dimensions and the trace so far.
	shapes Shapes
	// tensors holds the values computed so far: every tensor under Run,
	// the inputs and the stored statements under Infer. A tensor in scope
	// without values reads as 0.
	tensors map[string]*tensor.Tensor
	scalars map[string]float64
	idx     map[string]int // current index-variable assignment
	probe   bool           // one symbolic element: reductions evaluate one term
}

func (e *evalEnv) isTensor(name string) bool { _, ok := e.shapes.Shape[name]; return ok }
func (e *evalEnv) isScalar(name string) bool { _, ok := e.scalars[name]; return ok }

// stmtPlan is everything about a statement that follows from the shapes in
// scope: its iteration space and the shape of the tensor it writes.
type stmtPlan struct {
	info   StmtInfo
	bounds []int // extents of info.Free, in order
	shape  []int // shape of the target after the statement
	fresh  bool  // the statement creates its target
}

// plan infers a statement's free indices, the extent of every index and
// the shape of its target, without evaluating anything.
func (e *evalEnv) plan(s *Stmt) (stmtPlan, error) {
	freeOrder, err := e.freeIndices(s)
	if err != nil {
		return stmtPlan{}, err
	}
	extents, err := e.inferExtents(s, freeOrder)
	if err != nil {
		return stmtPlan{}, err
	}

	bounds := make([]int, len(freeOrder))
	for i, name := range freeOrder {
		bounds[i] = extents[name]
	}

	shape, fresh, err := e.targetShape(s, freeOrder, bounds)
	if err != nil {
		return stmtPlan{}, err
	}

	// Record the iteration space for the lowering pipeline, including any
	// reduction indices with their extents.
	info := StmtInfo{Name: s.Name, Free: append([]string(nil), freeOrder...), Extents: extents}
	var sumErr error
	walkExpr(s.RHS, func(x Expr) {
		if sumErr != nil {
			return
		}
		if se, ok := x.(SumExpr); ok {
			info.SumIdx = append(info.SumIdx, se.Indices...)
			sx, err := e.sumExtents(se)
			if err != nil {
				sumErr = err
				return
			}
			for name, ext := range sx {
				info.Extents[name] = ext
			}
		}
	})
	if sumErr != nil {
		return stmtPlan{}, sumErr
	}
	return stmtPlan{info: info, bounds: bounds, shape: shape, fresh: fresh}, nil
}

// exec plans one statement, runs as much of its element loop as the mode
// asks, and brings the statement's target into scope.
func (e *evalEnv) exec(s *Stmt, mode execMode) error {
	p, err := e.plan(s)
	if err != nil {
		return err
	}
	e.shapes.Trace = append(e.shapes.Trace, p.info)

	var target *tensor.Tensor
	if mode == execStore {
		if p.fresh {
			target = tensor.New(p.shape...)
		} else {
			target = e.tensors[s.Name]
		}
	}
	e.idx = make(map[string]int, len(p.info.Free)+4)
	e.probe = mode == execProbe
	pair, isPair := s.RHS.(PairExpr)
	it := tensor.NewIndexer(p.bounds)
	lhsIdx := make([]int, 0, len(p.info.Free)+1)
	for tuple, ok := it.Next(); ok; tuple, ok = it.Next() {
		for i, name := range p.info.Free {
			e.idx[name] = tuple[i]
		}
		lhsIdx = lhsIdx[:0]
		if s.LHS != nil {
			for d, le := range s.LHS {
				v, err := e.evalInt(le)
				if err != nil {
					return err
				}
				if v < 0 || v >= p.shape[d] {
					return fmt.Errorf("index %d out of range [0,%d) in dim %d of %q", v, p.shape[d], d, s.Name)
				}
				lhsIdx = append(lhsIdx, v)
			}
		} else {
			lhsIdx = append(lhsIdx, tuple...)
		}
		if isPair {
			a, err := e.eval(pair.A)
			if err != nil {
				return err
			}
			bv, err := e.eval(pair.B)
			if err != nil {
				return err
			}
			if target != nil {
				target.Set(a, append(lhsIdx, 0)...)
				target.Set(bv, append(lhsIdx, 1)...)
			}
		} else {
			v, err := e.eval(s.RHS)
			if err != nil {
				return err
			}
			if target != nil {
				if s.Accumulate {
					v += target.At(lhsIdx...)
				}
				target.Set(v, lhsIdx...)
			}
		}
		if mode == execProbe {
			break
		}
	}
	e.shapes.Shape[s.Name] = p.shape
	if target != nil {
		e.tensors[s.Name] = target
	} else {
		delete(e.tensors, s.Name)
	}
	return nil
}

// freeIndices determines the ordered free index variables of a statement:
// the explicit LHS order when subscripts are given (bare identifiers only),
// otherwise first-appearance order in the RHS.
func (e *evalEnv) freeIndices(s *Stmt) ([]string, error) {
	if s.LHS != nil {
		var order []string
		seen := make(map[string]bool)
		for _, le := range s.LHS {
			walkExpr(le, func(x Expr) {
				if id, ok := x.(IdentRef); ok && e.isIndexVar(id.Name) && !seen[id.Name] {
					seen[id.Name] = true
					order = append(order, id.Name)
				}
			})
		}
		return order, nil
	}
	// Inferred: free index vars of RHS in first-appearance order, skipping
	// sum-bound ones.
	if out := e.kernel.Output(s.Name); out != nil && len(out.Indices) > 0 {
		// Output declarations fix the order (and act as documentation).
		free := e.collectFree(s.RHS)
		freeSet := make(map[string]bool, len(free))
		for _, f := range free {
			freeSet[f] = true
		}
		if len(out.Indices) != len(free) {
			return nil, fmt.Errorf("output %q declares %d indices %v but statement has free indices %v",
				s.Name, len(out.Indices), out.Indices, free)
		}
		for _, ix := range out.Indices {
			if !freeSet[ix] {
				return nil, fmt.Errorf("output %q declares index %q not free in its defining statement", s.Name, ix)
			}
		}
		return append([]string(nil), out.Indices...), nil
	}
	return e.collectFree(s.RHS), nil
}

// collectFree returns the free (not sum-bound) index variables of an
// expression in first-appearance order.
func (e *evalEnv) collectFree(expr Expr) []string {
	var order []string
	seen := make(map[string]bool)
	var walk func(x Expr, bound map[string]bool)
	walk = func(x Expr, bound map[string]bool) {
		switch t := x.(type) {
		case IdentRef:
			if e.isIndexVar(t.Name) && !bound[t.Name] && !seen[t.Name] {
				seen[t.Name] = true
				order = append(order, t.Name)
			}
		case SubscriptExpr:
			walk(t.Base, bound)
			for _, ix := range t.Indices {
				walk(ix, bound)
			}
		case BinaryExpr:
			walk(t.L, bound)
			walk(t.R, bound)
		case UnaryExpr:
			walk(t.X, bound)
		case CallExpr:
			for _, a := range t.Args {
				walk(a, bound)
			}
		case SumExpr:
			inner := make(map[string]bool, len(bound)+len(t.Indices))
			for k := range bound {
				inner[k] = true
			}
			for _, ix := range t.Indices {
				inner[ix] = true
			}
			walk(t.Body, inner)
		case PairExpr:
			walk(t.A, bound)
			walk(t.B, bound)
		}
	}
	walk(expr, map[string]bool{})
	return order
}

// isIndexVar reports whether a name denotes an index variable: not a tensor,
// not a scalar parameter.
func (e *evalEnv) isIndexVar(name string) bool {
	return !e.isTensor(name) && !e.isScalar(name)
}

// inferExtents derives the extent of every index variable used in the
// statement from the subscript positions where it appears bare, including
// LHS positions against an existing target.
func (e *evalEnv) inferExtents(s *Stmt, free []string) (map[string]int, error) {
	extents := make(map[string]int)
	bind := func(name string, ext int) error {
		if prev, ok := extents[name]; ok && prev != ext {
			return fmt.Errorf("index %q constrained to both %d and %d", name, prev, ext)
		}
		extents[name] = ext
		return nil
	}

	var err error
	record := func(x Expr) {
		if err != nil {
			return
		}
		sub, ok := x.(SubscriptExpr)
		if !ok {
			return
		}
		base := sub.Base.(IdentRef)
		shape, ok := e.shapes.Shape[base.Name]
		if !ok {
			err = fmt.Errorf("unknown tensor %q", base.Name)
			return
		}
		if len(sub.Indices) != len(shape) {
			err = fmt.Errorf("tensor %q has rank %d but %d subscripts", base.Name, len(shape), len(sub.Indices))
			return
		}
		for d, ix := range sub.Indices {
			if id, ok := ix.(IdentRef); ok && e.isIndexVar(id.Name) {
				if berr := bind(id.Name, shape[d]); berr != nil {
					err = berr
					return
				}
			}
		}
	}
	walkExpr(s.RHS, record)
	if err != nil {
		return nil, err
	}

	// LHS subscripts against an existing target also constrain.
	if s.LHS != nil {
		if shape, ok := e.shapes.Shape[s.Name]; ok {
			if len(s.LHS) != len(shape) {
				return nil, fmt.Errorf("target %q has rank %d but %d subscripts", s.Name, len(shape), len(s.LHS))
			}
			for d, le := range s.LHS {
				if id, ok := le.(IdentRef); ok && e.isIndexVar(id.Name) {
					if berr := bind(id.Name, shape[d]); berr != nil {
						return nil, berr
					}
				}
			}
		}
	}

	// Every index variable referenced in the statement needs an extent.
	var missing []string
	check := func(name string) {
		if _, ok := extents[name]; !ok {
			missing = append(missing, name)
		}
	}
	for _, f := range free {
		check(f)
	}
	walkExpr(s.RHS, func(x Expr) {
		if se, ok := x.(SumExpr); ok {
			for _, ix := range se.Indices {
				check(ix)
			}
		}
	})
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("cannot infer extent of index %v: indices must appear bare in at least one subscript", missing)
	}
	return extents, nil
}

// targetShape returns the shape of the tensor the statement writes into
// and whether the statement creates it. Writes into an existing target
// must fit its shape.
func (e *evalEnv) targetShape(s *Stmt, free []string, bounds []int) ([]int, bool, error) {
	existing, exists := e.shapes.Shape[s.Name]
	_, isPair := s.RHS.(PairExpr)
	if exists && (s.LHS != nil || s.Accumulate) {
		want := bounds
		if s.LHS != nil {
			// inferExtents checked the rank and bound the bare subscripts.
			want = existing
		}
		if isPair {
			want = append(append([]int(nil), want...), 2)
		}
		if !slices.Equal(want, existing) {
			return nil, false, fmt.Errorf("statement of shape %v cannot write into %q of shape %v", want, s.Name, existing)
		}
		return existing, false, nil
	}
	if s.Accumulate {
		return nil, false, fmt.Errorf("accumulation target %q does not exist yet", s.Name)
	}
	shape := bounds
	if s.LHS != nil {
		// Creating via explicit LHS requires bare distinct index vars so the
		// shape is well-defined.
		if len(s.LHS) != len(free) {
			return nil, false, fmt.Errorf("cannot create %q: explicit subscripts must be bare distinct index variables", s.Name)
		}
		for i, le := range s.LHS {
			id, ok := le.(IdentRef)
			if !ok || id.Name != free[i] {
				return nil, false, fmt.Errorf("cannot create %q: subscript %d is not a bare index variable", s.Name, i)
			}
		}
	}
	if isPair {
		shape = append(append([]int(nil), bounds...), 2)
	}
	return shape, true, nil
}

// eval evaluates an expression to a float64 under the current index
// assignment.
func (e *evalEnv) eval(x Expr) (float64, error) {
	switch t := x.(type) {
	case NumberLit:
		return t.Value, nil

	case IdentRef:
		if v, ok := e.scalars[t.Name]; ok {
			return v, nil
		}
		if v, ok := e.idx[t.Name]; ok {
			return float64(v), nil
		}
		if shape, ok := e.shapes.Shape[t.Name]; ok {
			if len(shape) != 0 {
				return 0, fmt.Errorf("tensor %q used without subscripts", t.Name)
			}
			if tt, ok := e.tensors[t.Name]; ok {
				return tt.Item(), nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("unbound identifier %q", t.Name)

	case SubscriptExpr:
		base := t.Base.(IdentRef)
		shape, ok := e.shapes.Shape[base.Name]
		if !ok {
			return 0, fmt.Errorf("unknown tensor %q", base.Name)
		}
		if len(t.Indices) != len(shape) {
			return 0, fmt.Errorf("tensor %q has rank %d but %d subscripts", base.Name, len(shape), len(t.Indices))
		}
		idx := make([]int, len(t.Indices))
		for d, ix := range t.Indices {
			v, err := e.evalInt(ix)
			if err != nil {
				return 0, err
			}
			if v < 0 || v >= shape[d] {
				return 0, fmt.Errorf("index %d out of range [0,%d) in dim %d of %q",
					v, shape[d], d, base.Name)
			}
			idx[d] = v
		}
		if tt, ok := e.tensors[base.Name]; ok {
			return tt.At(idx...), nil
		}
		return 0, nil

	case BinaryExpr:
		l, err := e.eval(t.L)
		if err != nil {
			return 0, err
		}
		r, err := e.eval(t.R)
		if err != nil {
			return 0, err
		}
		switch t.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			return l / r, nil
		case "<=":
			return boolVal(l <= r), nil
		case "<":
			return boolVal(l < r), nil
		case ">=":
			return boolVal(l >= r), nil
		case ">":
			return boolVal(l > r), nil
		case "==":
			return boolVal(l == r), nil
		case "!=":
			return boolVal(l != r), nil
		}
		return 0, fmt.Errorf("unknown operator %q", t.Op)

	case UnaryExpr:
		v, err := e.eval(t.X)
		if err != nil {
			return 0, err
		}
		return -v, nil

	case CallExpr:
		args := make([]float64, len(t.Args))
		for i, a := range t.Args {
			v, err := e.eval(a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		switch t.Fn {
		case "select":
			if args[0] != 0 {
				return args[1], nil
			}
			return args[2], nil
		case "exp":
			return math.Exp(args[0]), nil
		case "log":
			return math.Log(args[0]), nil
		case "sqrt":
			return math.Sqrt(args[0]), nil
		case "abs":
			return math.Abs(args[0]), nil
		case "floor":
			return math.Floor(args[0]), nil
		case "min":
			return math.Min(args[0], args[1]), nil
		case "max":
			return math.Max(args[0], args[1]), nil
		case "pow":
			return math.Pow(args[0], args[1]), nil
		}
		return 0, fmt.Errorf("unknown function %q", t.Fn)

	case SumExpr:
		// Extents of sum indices were validated in inferExtents; re-derive
		// them here from the body's subscripts.
		extents, err := e.sumExtents(t)
		if err != nil {
			return 0, err
		}
		bounds := make([]int, len(t.Indices))
		for i, name := range t.Indices {
			bounds[i] = extents[name]
		}
		saved := make([]int, len(t.Indices))
		hadPrev := make([]bool, len(t.Indices))
		for i, name := range t.Indices {
			saved[i], hadPrev[i] = e.idx[name], hasKey(e.idx, name)
		}
		total := 0.0
		it := tensor.NewIndexer(bounds)
		for tuple, ok := it.Next(); ok; tuple, ok = it.Next() {
			for i, name := range t.Indices {
				e.idx[name] = tuple[i]
			}
			v, err := e.eval(t.Body)
			if err != nil {
				return 0, err
			}
			total += v
			if e.probe {
				break
			}
		}
		for i, name := range t.Indices {
			if hadPrev[i] {
				e.idx[name] = saved[i]
			} else {
				delete(e.idx, name)
			}
		}
		return total, nil

	case PairExpr:
		return 0, fmt.Errorf("pair expression in value position")
	}
	return 0, fmt.Errorf("unhandled expression %T", x)
}

// sumExtents infers the extents of a SumExpr's indices from bare appearances
// in its body.
func (e *evalEnv) sumExtents(se SumExpr) (map[string]int, error) {
	want := make(map[string]bool, len(se.Indices))
	for _, ix := range se.Indices {
		want[ix] = true
	}
	extents := make(map[string]int, len(se.Indices))
	var err error
	walkExpr(se.Body, func(x Expr) {
		if err != nil {
			return
		}
		sub, ok := x.(SubscriptExpr)
		if !ok {
			return
		}
		base := sub.Base.(IdentRef)
		shape, ok := e.shapes.Shape[base.Name]
		if !ok {
			return
		}
		for d, ix := range sub.Indices {
			if d >= len(shape) {
				return
			}
			if id, ok := ix.(IdentRef); ok && want[id.Name] {
				ext := shape[d]
				if prev, ok := extents[id.Name]; ok && prev != ext {
					err = fmt.Errorf("sum index %q constrained to both %d and %d", id.Name, prev, ext)
					return
				}
				extents[id.Name] = ext
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, ix := range se.Indices {
		if _, ok := extents[ix]; !ok {
			return nil, fmt.Errorf("cannot infer extent of sum index %q", ix)
		}
	}
	return extents, nil
}

// evalInt evaluates an expression expected to yield an integer (subscript
// position).
func (e *evalEnv) evalInt(x Expr) (int, error) {
	v, err := e.eval(x)
	if err != nil {
		return 0, err
	}
	r := math.Round(v)
	if math.Abs(v-r) > 1e-9 {
		return 0, fmt.Errorf("subscript value %g is not an integer", v)
	}
	return int(r), nil
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func hasKey(m map[string]int, k string) bool { _, ok := m[k]; return ok }
