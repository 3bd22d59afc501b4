// Package ast defines the abstract syntax tree of the C-like source
// language produced by the parser and consumed by the IR lowering phase.
package ast

import (
	"fmt"
	"strings"

	"sparrow/internal/frontend/token"
)

// ---------- Types ----------

// Type is the interface of source-level types.
type Type interface {
	typ()
	String() string
}

// IntT is the integer type (int/char/long collapse to one abstract integer).
type IntT struct{}

// VoidT is the void type (function results only).
type VoidT struct{}

// PtrT is a pointer type.
type PtrT struct{ Elem Type }

// ArrayT is a fixed-size array type.
type ArrayT struct {
	Elem Type
	Len  int64
}

// StructT is a reference to a named struct.
type StructT struct{ Name string }

// FuncT is a function type (used for function pointers).
type FuncT struct {
	Params []Type
	Ret    Type
}

func (IntT) typ()    {}
func (VoidT) typ()   {}
func (PtrT) typ()    {}
func (ArrayT) typ()  {}
func (StructT) typ() {}
func (FuncT) typ()   {}

func (IntT) String() string   { return "int" }
func (VoidT) String() string  { return "void" }
func (t PtrT) String() string { return t.Elem.String() + "*" }
func (t ArrayT) String() string {
	// Print dimensions outside-in, as C declarations read: int[2][3] is an
	// array of 2 arrays of 3 ints.
	dims := ""
	var elem Type = t
	for {
		a, ok := elem.(ArrayT)
		if !ok {
			break
		}
		dims += fmt.Sprintf("[%d]", a.Len)
		elem = a.Elem
	}
	return elem.String() + dims
}
func (t StructT) String() string {
	return "struct " + t.Name
}
func (t FuncT) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s(*)(%s)", t.Ret, strings.Join(parts, ","))
}

// ---------- Expressions ----------

// Expr is the interface of expressions. All expressions carry a position.
type Expr interface {
	expr()
	Pos() token.Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Val int64
	P   token.Pos
}

// Ident is a variable or function reference.
type Ident struct {
	Name string
	P    token.Pos
}

// Unary is a prefix operation: -x, !x, *x, &x, ~x.
type Unary struct {
	Op token.Kind // Minus, Not, Star, Amp
	X  Expr
	P  token.Pos
}

// Binary is an infix operation.
type Binary struct {
	Op   token.Kind
	X, Y Expr
	P    token.Pos
}

// Index is array subscription x[i].
type Index struct {
	X, I Expr
	P    token.Pos
}

// Field is member access: x.Name (Arrow false) or x->Name (Arrow true).
type Field struct {
	X     Expr
	Name  string
	Arrow bool
	P     token.Pos
}

// Call is a function call; Fun may be an Ident or a dereferenced function
// pointer expression.
type Call struct {
	Fun  Expr
	Args []Expr
	P    token.Pos
}

func (*IntLit) expr() {}
func (*Ident) expr()  {}
func (*Unary) expr()  {}
func (*Binary) expr() {}
func (*Index) expr()  {}
func (*Field) expr()  {}
func (*Call) expr()   {}

// Pos implementations.
func (e *IntLit) Pos() token.Pos { return e.P }
func (e *Ident) Pos() token.Pos  { return e.P }
func (e *Unary) Pos() token.Pos  { return e.P }
func (e *Binary) Pos() token.Pos { return e.P }
func (e *Index) Pos() token.Pos  { return e.P }
func (e *Field) Pos() token.Pos  { return e.P }
func (e *Call) Pos() token.Pos   { return e.P }

// ---------- Statements ----------

// Stmt is the interface of statements.
type Stmt interface {
	stmt()
	Pos() token.Pos
}

// DeclStmt declares a local variable, optionally initialized.
type DeclStmt struct {
	Name string
	Type Type
	Init Expr // may be nil
	P    token.Pos
}

// AssignStmt is LHS = RHS (or op-assign with Op one of +=, -=, *=, /=).
type AssignStmt struct {
	Op  token.Kind // Assign, PlusAssign, ...
	LHS Expr
	RHS Expr
	P   token.Pos
}

// IncDecStmt is x++ or x-- used as a statement.
type IncDecStmt struct {
	X   Expr
	Dec bool
	P   token.Pos
}

// ExprStmt evaluates an expression for effect (calls).
type ExprStmt struct {
	X Expr
	P token.Pos
}

// Block is a { ... } statement sequence.
type Block struct {
	Stmts []Stmt
	P     token.Pos
}

// IfStmt is a conditional with optional else branch.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	P    token.Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	P    token.Pos
}

// DoWhileStmt is a do { } while loop.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
	P    token.Pos
}

// ForStmt is a for loop; Init/Post are optional simple statements and Cond
// is an optional expression.
type ForStmt struct {
	Init Stmt // may be nil
	Cond Expr // may be nil (infinite loop)
	Post Stmt // may be nil
	Body Stmt
	P    token.Pos
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ P token.Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ P token.Pos }

// ReturnStmt returns, optionally with a value.
type ReturnStmt struct {
	X Expr // may be nil
	P token.Pos
}

// GotoStmt jumps to a label in the same function.
type GotoStmt struct {
	Label string
	P     token.Pos
}

// LabelStmt labels the following statement as a goto target.
type LabelStmt struct {
	Name string
	Stmt Stmt
	P    token.Pos
}

// SwitchCase is one arm of a switch: Vals lists its case constants
// (nil marks the default arm). Execution falls through to the next arm
// unless the body breaks.
type SwitchCase struct {
	Vals  []int64
	Stmts []Stmt
	P     token.Pos
}

// SwitchStmt is a C switch with fallthrough semantics.
type SwitchStmt struct {
	Cond  Expr
	Cases []SwitchCase
	P     token.Pos
}

func (*DeclStmt) stmt()     {}
func (*AssignStmt) stmt()   {}
func (*IncDecStmt) stmt()   {}
func (*ExprStmt) stmt()     {}
func (*Block) stmt()        {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*DoWhileStmt) stmt()  {}
func (*ForStmt) stmt()      {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*ReturnStmt) stmt()   {}
func (*GotoStmt) stmt()     {}
func (*LabelStmt) stmt()    {}
func (*SwitchStmt) stmt()   {}

// Pos implementations.
func (s *DeclStmt) Pos() token.Pos     { return s.P }
func (s *AssignStmt) Pos() token.Pos   { return s.P }
func (s *IncDecStmt) Pos() token.Pos   { return s.P }
func (s *ExprStmt) Pos() token.Pos     { return s.P }
func (s *Block) Pos() token.Pos        { return s.P }
func (s *IfStmt) Pos() token.Pos       { return s.P }
func (s *WhileStmt) Pos() token.Pos    { return s.P }
func (s *DoWhileStmt) Pos() token.Pos  { return s.P }
func (s *ForStmt) Pos() token.Pos      { return s.P }
func (s *BreakStmt) Pos() token.Pos    { return s.P }
func (s *ContinueStmt) Pos() token.Pos { return s.P }
func (s *ReturnStmt) Pos() token.Pos   { return s.P }
func (s *GotoStmt) Pos() token.Pos     { return s.P }
func (s *LabelStmt) Pos() token.Pos    { return s.P }
func (s *SwitchStmt) Pos() token.Pos   { return s.P }

// ---------- Declarations ----------

// FieldDecl is one member of a struct definition.
type FieldDecl struct {
	Name string
	Type Type
}

// StructDef is a named struct definition.
type StructDef struct {
	Name   string
	Fields []FieldDecl
	P      token.Pos
}

// VarDecl is a global variable declaration.
type VarDecl struct {
	Name string
	Type Type
	Init Expr // may be nil
	P    token.Pos
}

// Param is a function parameter.
type Param struct {
	Name string
	Type Type
}

// FuncDef is a function definition.
type FuncDef struct {
	Name   string
	Params []Param
	Ret    Type
	Body   *Block
	P      token.Pos
}

// File is a parsed translation unit.
type File struct {
	Name    string
	Structs []*StructDef
	Globals []*VarDecl
	Funcs   []*FuncDef
}
