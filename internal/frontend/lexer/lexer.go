// Package lexer turns C-like source text into a token stream.
//
// The lexer handles line and block comments, decimal/hex/octal integer
// literals, character constants, identifiers/keywords, and the operator set
// of the language. It is written as a simple byte scanner (the language is
// ASCII) and reports errors with positions.
package lexer

import (
	"fmt"

	"sparrow/internal/frontend/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans a source buffer. Create one with New and call Next until EOF.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []*Error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans all of src and returns the full token list (ending with an
// EOF token) along with any errors.
func Tokenize(src string) ([]token.Token, []*Error) {
	l := New(src)
	// C source, generated or hand-written, runs below one token per two
	// bytes, so one allocation holds the whole stream.
	toks := make([]token.Token, 0, len(src)/2+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return toks, l.errs
}

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) bump() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipTrivia consumes whitespace, comments, and preprocessor-style lines
// (lines starting with '#', which the frontend ignores).
func (l *Lexer) skipTrivia() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case isSpace(c):
			l.bump()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.bump()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.bump()
			l.bump()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.bump()
					l.bump()
					closed = true
					break
				}
				l.bump()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		case c == '#' && l.col == 1:
			for l.off < len(l.src) && l.peek() != '\n' {
				l.bump()
			}
		default:
			return
		}
	}
}

// Next returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipTrivia()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.bump()
	switch {
	case isIdentStart(c):
		start := l.off - 1
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.bump()
		}
		lex := l.src[start:l.off]
		kind := token.Lookup(lex)
		return token.Token{Kind: kind, Lexeme: lex, Pos: pos}
	case isDigit(c):
		return l.number(c, pos)
	case c == '\'':
		return l.charConst(pos)
	}

	two := func(next byte, ifTwo, ifOne token.Kind) token.Token {
		if l.peek() == next {
			l.bump()
			return token.Token{Kind: ifTwo, Pos: pos}
		}
		return token.Token{Kind: ifOne, Pos: pos}
	}

	switch c {
	case '(':
		return token.Token{Kind: token.LParen, Pos: pos}
	case ')':
		return token.Token{Kind: token.RParen, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBrace, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBrace, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBracket, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBracket, Pos: pos}
	case ',':
		return token.Token{Kind: token.Comma, Pos: pos}
	case ';':
		return token.Token{Kind: token.Semi, Pos: pos}
	case ':':
		return token.Token{Kind: token.Colon, Pos: pos}
	case '.':
		return token.Token{Kind: token.Dot, Pos: pos}
	case '+':
		if l.peek() == '+' {
			l.bump()
			return token.Token{Kind: token.PlusPlus, Pos: pos}
		}
		return two('=', token.PlusAssign, token.Plus)
	case '-':
		switch l.peek() {
		case '-':
			l.bump()
			return token.Token{Kind: token.MinusMinus, Pos: pos}
		case '>':
			l.bump()
			return token.Token{Kind: token.Arrow, Pos: pos}
		}
		return two('=', token.MinusAssign, token.Minus)
	case '*':
		return two('=', token.StarAssign, token.Star)
	case '/':
		return two('=', token.SlashAssign, token.Slash)
	case '%':
		return token.Token{Kind: token.Percent, Pos: pos}
	case '&':
		return two('&', token.AmpAmp, token.Amp)
	case '|':
		return two('|', token.PipePipe, token.Pipe)
	case '^':
		return token.Token{Kind: token.Caret, Pos: pos}
	case '<':
		if l.peek() == '<' {
			l.bump()
			return token.Token{Kind: token.Shl, Pos: pos}
		}
		return two('=', token.Le, token.Lt)
	case '>':
		if l.peek() == '>' {
			l.bump()
			return token.Token{Kind: token.Shr, Pos: pos}
		}
		return two('=', token.Ge, token.Gt)
	case '=':
		return two('=', token.EqEq, token.Assign)
	case '!':
		return two('=', token.NotEq, token.Not)
	}
	l.errorf(pos, "unexpected character %q", c)
	return l.Next()
}

func (l *Lexer) number(first byte, pos token.Pos) token.Token {
	start := l.off - 1
	base := int64(10)
	if first == '0' && (l.peek() == 'x' || l.peek() == 'X') {
		l.bump()
		base = 16
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.bump()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.bump()
		}
		if first == '0' && l.off > start+1 {
			base = 8
		}
	}
	// Swallow C integer suffixes (u, l, ul, ll, ...).
	for l.off < len(l.src) {
		c := l.peek()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			l.bump()
		} else {
			break
		}
	}
	lex := l.src[start:l.off]
	val, err := parseInt(lex, base)
	if err != nil {
		l.errorf(pos, "bad integer literal %q", lex)
	}
	return token.Token{Kind: token.Number, Lexeme: lex, Val: val, Pos: pos}
}

func parseInt(s string, base int64) (int64, error) {
	var v int64
	digits := s
	if base == 16 {
		digits = s[2:]
	}
	seen := false
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		var d int64
		switch {
		case isDigit(c):
			d = int64(c - '0')
		case 'a' <= c && c <= 'f':
			d = int64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = int64(c-'A') + 10
		case c == 'u' || c == 'U' || c == 'l' || c == 'L':
			continue
		default:
			return 0, fmt.Errorf("bad digit %q", c)
		}
		if d >= base {
			return 0, fmt.Errorf("digit %q out of range for base %d", c, base)
		}
		v = v*base + d
		seen = true
	}
	if !seen {
		return 0, fmt.Errorf("no digits")
	}
	return v, nil
}

func (l *Lexer) charConst(pos token.Pos) token.Token {
	var val int64
	if l.off >= len(l.src) {
		l.errorf(pos, "unterminated character constant")
		return token.Token{Kind: token.Number, Pos: pos}
	}
	c := l.bump()
	if c == '\\' {
		if l.off >= len(l.src) {
			l.errorf(pos, "unterminated escape")
			return token.Token{Kind: token.Number, Pos: pos}
		}
		e := l.bump()
		switch e {
		case 'n':
			val = '\n'
		case 't':
			val = '\t'
		case 'r':
			val = '\r'
		case '0':
			val = 0
		case '\\':
			val = '\\'
		case '\'':
			val = '\''
		default:
			l.errorf(pos, "unknown escape \\%c", e)
			val = int64(e)
		}
	} else {
		val = int64(c)
	}
	if l.off < len(l.src) && l.peek() == '\'' {
		l.bump()
	} else {
		l.errorf(pos, "unterminated character constant")
	}
	return token.Token{Kind: token.Number, Lexeme: fmt.Sprintf("%d", val), Val: val, Pos: pos}
}
