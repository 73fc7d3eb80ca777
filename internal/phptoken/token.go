// Package phptoken defines the token taxonomy for PHP 5 source code.
//
// The taxonomy mirrors the token identifiers produced by the PHP
// interpreter's token_get_all function, which the phpSAFE paper (DSN 2015,
// §III.B) uses as the substrate of its model-construction stage. Single
// character punctuation, which token_get_all returns as bare strings, is
// represented here by dedicated kinds so that downstream passes can switch
// on a single enum.
package phptoken

import "strconv"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Names follow the PHP engine's T_* identifiers where an
// equivalent exists.
const (
	// Invalid is the zero Kind; it never appears in lexer output.
	Invalid Kind = iota

	// EOF marks the end of the token stream.
	EOF

	// InlineHTML is raw output outside <?php ... ?> regions (T_INLINE_HTML).
	InlineHTML
	// OpenTag is "<?php" or "<?=" (T_OPEN_TAG / T_OPEN_TAG_WITH_ECHO).
	OpenTag
	// OpenTagEcho is the short echo tag "<?=".
	OpenTagEcho
	// CloseTag is "?>" (T_CLOSE_TAG).
	CloseTag

	// Variable is "$name" (T_VARIABLE).
	Variable
	// Ident is a bare identifier: function names, class names, constants
	// (T_STRING).
	Ident
	// IntLit is an integer literal (T_LNUMBER).
	IntLit
	// FloatLit is a floating point literal (T_DNUMBER).
	FloatLit
	// StringLit is a single-quoted or non-interpolated double-quoted string
	// including its quotes (T_CONSTANT_ENCAPSED_STRING).
	StringLit
	// EncapsedText is a raw text fragment inside an interpolated string or
	// heredoc (T_ENCAPSED_AND_WHITESPACE).
	EncapsedText
	// Quote is the '"' delimiter of an interpolated string.
	Quote
	// StartHeredoc is "<<<LABEL" (T_START_HEREDOC).
	StartHeredoc
	// EndHeredoc is the closing heredoc label (T_END_HEREDOC).
	EndHeredoc
	// CurlyOpen is "{$" inside an interpolated string (T_CURLY_OPEN).
	CurlyOpen
	// DollarCurlyOpen is "${" inside an interpolated string
	// (T_DOLLAR_OPEN_CURLY_BRACES).
	DollarCurlyOpen

	// Comment is "// ...", "# ..." or "/* ... */" (T_COMMENT).
	Comment
	// DocComment is "/** ... */" (T_DOC_COMMENT).
	DocComment
	// Whitespace is a run of spaces, tabs and newlines (T_WHITESPACE).
	Whitespace

	// Keywords.
	KwAbstract
	KwArray
	KwAs
	KwBreak
	KwCase
	KwCatch
	KwClass
	KwClone
	KwConst
	KwContinue
	KwDeclare
	KwDefault
	KwDo
	KwEcho
	KwElse
	KwElseif
	KwEmpty
	KwExit
	KwExtends
	KwFinal
	KwFinally
	KwFor
	KwForeach
	KwFunction
	KwGlobal
	KwIf
	KwImplements
	KwInclude
	KwIncludeOnce
	KwInstanceof
	KwInterface
	KwIsset
	KwList
	KwNamespace
	KwNew
	KwPrint
	KwPrivate
	KwProtected
	KwPublic
	KwRequire
	KwRequireOnce
	KwReturn
	KwStatic
	KwSwitch
	KwThrow
	KwTrait
	KwTry
	KwUnset
	KwUse
	KwVar
	KwWhile
	// KwLogicalAnd, KwLogicalOr, KwLogicalXor are the word-form operators
	// "and", "or", "xor" (T_LOGICAL_AND/OR/XOR).
	KwLogicalAnd
	KwLogicalOr
	KwLogicalXor

	// Casts (T_INT_CAST, T_DOUBLE_CAST, ...).
	IntCast
	FloatCast
	StringCast
	ArrayCast
	ObjectCast
	BoolCast
	UnsetCast

	// Operators and punctuation.
	Assign         // =
	Plus           // +
	Minus          // -
	Star           // *
	Slash          // /
	Percent        // %
	Dot            // .
	Bang           // !
	Question       // ?
	Colon          // :
	Semicolon      // ;
	Comma          // ,
	LParen         // (
	RParen         // )
	LBrace         // {
	RBrace         // }
	LBracket       // [
	RBracket       // ]
	Lt             // <
	Gt             // >
	Amp            // &
	Pipe           // |
	Caret          // ^
	Tilde          // ~
	At             // @
	Dollar         // $
	Backslash      // \
	Backtick       // `
	IsEqual        // ==
	IsIdentical    // ===
	IsNotEqual     // != or <>
	IsNotIdentical // !==
	Le             // <=
	Ge             // >=
	BoolAnd        // &&
	BoolOr         // ||
	Inc            // ++
	Dec            // --
	PlusAssign     // +=
	MinusAssign    // -=
	StarAssign     // *=
	SlashAssign    // /=
	DotAssign      // .=
	PercentAssign  // %=
	AmpAssign      // &=
	PipeAssign     // |=
	CaretAssign    // ^=
	ShlAssign      // <<=
	ShrAssign      // >>=
	Shl            // <<
	Shr            // >>
	Arrow          // -> (T_OBJECT_OPERATOR)
	DoubleColon    // :: (T_PAAMAYIM_NEKUDOTAYIM)
	DoubleArrow    // => (T_DOUBLE_ARROW)
	Ellipsis       // ...

	// kindCount is the number of kinds; it must remain last.
	kindCount
)

// tokenNames maps each Kind to the PHP engine token name where one exists,
// or to a descriptive name otherwise.
var tokenNames = [kindCount]string{
	Invalid:         "INVALID",
	EOF:             "EOF",
	InlineHTML:      "T_INLINE_HTML",
	OpenTag:         "T_OPEN_TAG",
	OpenTagEcho:     "T_OPEN_TAG_WITH_ECHO",
	CloseTag:        "T_CLOSE_TAG",
	Variable:        "T_VARIABLE",
	Ident:           "T_STRING",
	IntLit:          "T_LNUMBER",
	FloatLit:        "T_DNUMBER",
	StringLit:       "T_CONSTANT_ENCAPSED_STRING",
	EncapsedText:    "T_ENCAPSED_AND_WHITESPACE",
	Quote:           `"`,
	StartHeredoc:    "T_START_HEREDOC",
	EndHeredoc:      "T_END_HEREDOC",
	CurlyOpen:       "T_CURLY_OPEN",
	DollarCurlyOpen: "T_DOLLAR_OPEN_CURLY_BRACES",
	Comment:         "T_COMMENT",
	DocComment:      "T_DOC_COMMENT",
	Whitespace:      "T_WHITESPACE",
	KwAbstract:      "T_ABSTRACT",
	KwArray:         "T_ARRAY",
	KwAs:            "T_AS",
	KwBreak:         "T_BREAK",
	KwCase:          "T_CASE",
	KwCatch:         "T_CATCH",
	KwClass:         "T_CLASS",
	KwClone:         "T_CLONE",
	KwConst:         "T_CONST",
	KwContinue:      "T_CONTINUE",
	KwDeclare:       "T_DECLARE",
	KwDefault:       "T_DEFAULT",
	KwDo:            "T_DO",
	KwEcho:          "T_ECHO",
	KwElse:          "T_ELSE",
	KwElseif:        "T_ELSEIF",
	KwEmpty:         "T_EMPTY",
	KwExit:          "T_EXIT",
	KwExtends:       "T_EXTENDS",
	KwFinal:         "T_FINAL",
	KwFinally:       "T_FINALLY",
	KwFor:           "T_FOR",
	KwForeach:       "T_FOREACH",
	KwFunction:      "T_FUNCTION",
	KwGlobal:        "T_GLOBAL",
	KwIf:            "T_IF",
	KwImplements:    "T_IMPLEMENTS",
	KwInclude:       "T_INCLUDE",
	KwIncludeOnce:   "T_INCLUDE_ONCE",
	KwInstanceof:    "T_INSTANCEOF",
	KwInterface:     "T_INTERFACE",
	KwIsset:         "T_ISSET",
	KwList:          "T_LIST",
	KwNamespace:     "T_NAMESPACE",
	KwNew:           "T_NEW",
	KwPrint:         "T_PRINT",
	KwPrivate:       "T_PRIVATE",
	KwProtected:     "T_PROTECTED",
	KwPublic:        "T_PUBLIC",
	KwRequire:       "T_REQUIRE",
	KwRequireOnce:   "T_REQUIRE_ONCE",
	KwReturn:        "T_RETURN",
	KwStatic:        "T_STATIC",
	KwSwitch:        "T_SWITCH",
	KwThrow:         "T_THROW",
	KwTrait:         "T_TRAIT",
	KwTry:           "T_TRY",
	KwUnset:         "T_UNSET",
	KwUse:           "T_USE",
	KwVar:           "T_VAR",
	KwWhile:         "T_WHILE",
	KwLogicalAnd:    "T_LOGICAL_AND",
	KwLogicalOr:     "T_LOGICAL_OR",
	KwLogicalXor:    "T_LOGICAL_XOR",
	IntCast:         "T_INT_CAST",
	FloatCast:       "T_DOUBLE_CAST",
	StringCast:      "T_STRING_CAST",
	ArrayCast:       "T_ARRAY_CAST",
	ObjectCast:      "T_OBJECT_CAST",
	BoolCast:        "T_BOOL_CAST",
	UnsetCast:       "T_UNSET_CAST",
	Assign:          "=",
	Plus:            "+",
	Minus:           "-",
	Star:            "*",
	Slash:           "/",
	Percent:         "%",
	Dot:             ".",
	Bang:            "!",
	Question:        "?",
	Colon:           ":",
	Semicolon:       ";",
	Comma:           ",",
	LParen:          "(",
	RParen:          ")",
	LBrace:          "{",
	RBrace:          "}",
	LBracket:        "[",
	RBracket:        "]",
	Lt:              "<",
	Gt:              ">",
	Amp:             "&",
	Pipe:            "|",
	Caret:           "^",
	Tilde:           "~",
	At:              "@",
	Dollar:          "$",
	Backslash:       "\\",
	Backtick:        "`",
	IsEqual:         "T_IS_EQUAL",
	IsIdentical:     "T_IS_IDENTICAL",
	IsNotEqual:      "T_IS_NOT_EQUAL",
	IsNotIdentical:  "T_IS_NOT_IDENTICAL",
	Le:              "T_IS_SMALLER_OR_EQUAL",
	Ge:              "T_IS_GREATER_OR_EQUAL",
	BoolAnd:         "T_BOOLEAN_AND",
	BoolOr:          "T_BOOLEAN_OR",
	Inc:             "T_INC",
	Dec:             "T_DEC",
	PlusAssign:      "T_PLUS_EQUAL",
	MinusAssign:     "T_MINUS_EQUAL",
	StarAssign:      "T_MUL_EQUAL",
	SlashAssign:     "T_DIV_EQUAL",
	DotAssign:       "T_CONCAT_EQUAL",
	PercentAssign:   "T_MOD_EQUAL",
	AmpAssign:       "T_AND_EQUAL",
	PipeAssign:      "T_OR_EQUAL",
	CaretAssign:     "T_XOR_EQUAL",
	ShlAssign:       "T_SL_EQUAL",
	ShrAssign:       "T_SR_EQUAL",
	Shl:             "T_SL",
	Shr:             "T_SR",
	Arrow:           "T_OBJECT_OPERATOR",
	DoubleColon:     "T_DOUBLE_COLON",
	DoubleArrow:     "T_DOUBLE_ARROW",
	Ellipsis:        "T_ELLIPSIS",
}

// String returns the PHP engine token name for k (the equivalent of PHP's
// token_name), or a bracketed number for out-of-range kinds.
func (k Kind) String() string {
	if k < 0 || k >= kindCount {
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
	return tokenNames[k]
}

// KindCount reports the number of defined token kinds. It exists so tests
// can verify exhaustiveness of the name table.
func KindCount() int { return int(kindCount) }

// keywords maps lower-case PHP keyword spellings to their token kinds.
// PHP keywords are case-insensitive.
var keywords = map[string]Kind{
	"abstract":     KwAbstract,
	"array":        KwArray,
	"as":           KwAs,
	"break":        KwBreak,
	"case":         KwCase,
	"catch":        KwCatch,
	"class":        KwClass,
	"clone":        KwClone,
	"const":        KwConst,
	"continue":     KwContinue,
	"declare":      KwDeclare,
	"default":      KwDefault,
	"die":          KwExit,
	"do":           KwDo,
	"echo":         KwEcho,
	"else":         KwElse,
	"elseif":       KwElseif,
	"empty":        KwEmpty,
	"exit":         KwExit,
	"extends":      KwExtends,
	"final":        KwFinal,
	"finally":      KwFinally,
	"for":          KwFor,
	"foreach":      KwForeach,
	"function":     KwFunction,
	"global":       KwGlobal,
	"if":           KwIf,
	"implements":   KwImplements,
	"include":      KwInclude,
	"include_once": KwIncludeOnce,
	"instanceof":   KwInstanceof,
	"interface":    KwInterface,
	"isset":        KwIsset,
	"list":         KwList,
	"namespace":    KwNamespace,
	"new":          KwNew,
	"print":        KwPrint,
	"private":      KwPrivate,
	"protected":    KwProtected,
	"public":       KwPublic,
	"require":      KwRequire,
	"require_once": KwRequireOnce,
	"return":       KwReturn,
	"static":       KwStatic,
	"switch":       KwSwitch,
	"throw":        KwThrow,
	"trait":        KwTrait,
	"try":          KwTry,
	"unset":        KwUnset,
	"use":          KwUse,
	"var":          KwVar,
	"while":        KwWhile,
	"and":          KwLogicalAnd,
	"or":           KwLogicalOr,
	"xor":          KwLogicalXor,
}

// maxKeywordLen is the length of the longest keyword spelling.
const maxKeywordLen = len("include_once")

// LookupKeyword returns the keyword Kind for an identifier spelling, using
// PHP's case-insensitive keyword matching. The second result reports whether
// the spelling is a keyword. It folds case into a stack buffer, so it does
// not allocate.
func LookupKeyword(ident string) (Kind, bool) {
	if len(ident) > maxKeywordLen {
		return 0, false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	k, ok := keywords[string(buf[:len(ident)])]
	return k, ok
}

// Token is a single lexical token with its source position.
type Token struct {
	// Kind is the lexical class.
	Kind Kind
	// Text is the exact source text of the token.
	Text string
	// Line is the 1-based source line on which the token starts.
	Line int
	// Offset is the 0-based byte offset of the token start.
	Offset int
}

// IsKeyword reports whether the token is a PHP keyword.
func (t Token) IsKeyword() bool {
	return t.Kind >= KwAbstract && t.Kind <= KwLogicalXor
}

// IsTrivia reports whether the token carries no syntactic meaning
// (whitespace and comments). phpSAFE's model-construction stage strips
// trivia from the AST before analysis (paper §III.B).
func (t Token) IsTrivia() bool { return t.Kind.IsTrivia() }

// IsTrivia reports whether tokens of kind k are trivia (see
// Token.IsTrivia).
func (k Kind) IsTrivia() bool {
	return k == Whitespace || k == Comment || k == DocComment
}

// IsCast reports whether the token is a type-cast operator.
func (t Token) IsCast() bool {
	return t.Kind >= IntCast && t.Kind <= UnsetCast
}

// String renders the token as "T_NAME(text)@line" for debugging.
func (t Token) String() string {
	return t.Kind.String() + "(" + t.Text + ")@" + strconv.Itoa(t.Line)
}
