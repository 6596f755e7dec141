// Package sqlish implements the SQL subset of the Immortal DB prototype
// (Section 4): CREATE [IMMORTAL] TABLE, ALTER TABLE ... ENABLE SNAPSHOT,
// BEGIN TRAN [AS OF "..."], COMMIT/ROLLBACK, INSERT/UPDATE/DELETE, primary
// key SELECTs, and a SHOW HISTORY time-travel statement.
package sqlish

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single punctuation: ( ) , * = < > ; and two-char <= >= <>
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) error(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.in) && unicode.IsSpace(rune(l.in[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.in[l.pos]
	switch {
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.in) {
			if l.in[l.pos] == quote {
				// Doubled quote escapes itself.
				if l.pos+1 < len(l.in) && l.in[l.pos+1] == quote {
					sb.WriteByte(quote)
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(l.in[l.pos])
			l.pos++
		}
		return token{}, l.error(start, "unterminated string")
	case c == '-' || c >= '0' && c <= '9':
		l.pos++
		for l.pos < len(l.in) && (l.in[l.pos] >= '0' && l.in[l.pos] <= '9' || l.in[l.pos] == '.') {
			l.pos++
		}
		text := l.in[start:l.pos]
		if text == "-" {
			return token{}, l.error(start, "lone '-'")
		}
		return token{kind: tokNumber, text: text, pos: start}, nil
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.in) && isIdentPart(l.in[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.in[start:l.pos], pos: start}, nil
	case strings.ContainsRune("(),*=<>;[]", rune(c)):
		l.pos++
		text := string(c)
		if (c == '<' || c == '>') && l.pos < len(l.in) {
			if n := l.in[l.pos]; n == '=' || (c == '<' && n == '>') {
				text += string(n)
				l.pos++
			}
		}
		return token{kind: tokPunct, text: text, pos: start}, nil
	default:
		return token{}, l.error(start, "unexpected character %q", c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

// LeadingKeyword returns the statement's first token when it is an
// identifier (BEGIN, COMMIT, SELECT, ...) and "" otherwise. It reads no
// further than that token, so it classifies a statement far more cheaply
// than Parse; the statement may still fail to parse.
func LeadingKeyword(sql string) string {
	l := lexer{in: sql}
	if t, err := l.next(); err == nil && t.kind == tokIdent {
		return t.text
	}
	return ""
}

// tokenize splits the whole input.
func tokenize(in string) ([]token, error) {
	l := &lexer{in: in}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
