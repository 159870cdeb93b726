// Package types defines the SQL type system and scalar value representation
// shared by every layer of the warehouse: the metastore schema, the ORC file
// format, the vectorized runtime, and the optimizer's constant folding.
//
// Hive uses a nested data model (paper §3.1): all major atomic SQL types plus
// STRUCT, ARRAY and MAP. Atomic values are represented by Datum, a small
// struct that avoids interface boxing on hot paths.
package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the supported SQL type constructors.
type Kind uint8

// Atomic and nested type kinds.
const (
	Unknown Kind = iota
	Boolean
	Int32     // INT
	Int64     // BIGINT
	Float64   // DOUBLE
	Decimal   // DECIMAL(p,s), unscaled value in int64
	String    // STRING / VARCHAR / CHAR
	Date      // days since unix epoch
	Timestamp // microseconds since unix epoch
	Interval  // day-time interval, microseconds
	Struct
	Array
	Map
)

func (k Kind) String() string {
	switch k {
	case Boolean:
		return "BOOLEAN"
	case Int32:
		return "INT"
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Decimal:
		return "DECIMAL"
	case String:
		return "STRING"
	case Date:
		return "DATE"
	case Timestamp:
		return "TIMESTAMP"
	case Interval:
		return "INTERVAL"
	case Struct:
		return "STRUCT"
	case Array:
		return "ARRAY"
	case Map:
		return "MAP"
	}
	return "UNKNOWN"
}

// Field is a named component of a STRUCT type.
type Field struct {
	Name string
	Type T
}

// T describes a SQL type. Atomic types are cheap values; nested types carry
// pointers to their component types. The zero value is the Unknown type.
type T struct {
	Kind      Kind
	Precision int // decimal precision, or varchar max length
	Scale     int // decimal scale
	Elem      *T  // array element, map value
	Key       *T  // map key
	Fields    []Field
}

// Convenience constructors for the common atomic types.
var (
	TBool      = T{Kind: Boolean}
	TInt       = T{Kind: Int32}
	TBigint    = T{Kind: Int64}
	TDouble    = T{Kind: Float64}
	TString    = T{Kind: String}
	TDate      = T{Kind: Date}
	TTimestamp = T{Kind: Timestamp}
	TInterval  = T{Kind: Interval}
	TUnknown   = T{Kind: Unknown}
)

// TDecimal returns a DECIMAL(p,s) type.
func TDecimal(p, s int) T { return T{Kind: Decimal, Precision: p, Scale: s} }

// TArray returns an ARRAY<elem> type.
func TArray(elem T) T { return T{Kind: Array, Elem: &elem} }

// TMap returns a MAP<key,val> type.
func TMap(key, val T) T { return T{Kind: Map, Key: &key, Elem: &val} }

// Numeric reports whether the type participates in arithmetic.
func (t T) Numeric() bool {
	switch t.Kind {
	case Int32, Int64, Float64, Decimal:
		return true
	}
	return false
}

// Equal reports structural type equality (ignoring varchar lengths).
func (t T) Equal(o T) bool {
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case Decimal:
		return t.Scale == o.Scale
	case Array:
		return t.Elem.Equal(*o.Elem)
	case Map:
		return t.Key.Equal(*o.Key) && t.Elem.Equal(*o.Elem)
	case Struct:
		if len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if !t.Fields[i].Type.Equal(o.Fields[i].Type) {
				return false
			}
		}
	}
	return true
}

func (t T) String() string {
	switch t.Kind {
	case Decimal:
		return fmt.Sprintf("DECIMAL(%d,%d)", t.Precision, t.Scale)
	case Array:
		return "ARRAY<" + t.Elem.String() + ">"
	case Map:
		return "MAP<" + t.Key.String() + "," + t.Elem.String() + ">"
	case Struct:
		var b strings.Builder
		b.WriteString("STRUCT<")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			b.WriteString(f.Type.String())
		}
		b.WriteString(">")
		return b.String()
	}
	return t.Kind.String()
}

// ParseType parses a type name as written in DDL, e.g. "decimal(7,2)",
// "array<int>", "varchar(20)". Unknown names yield an error.
func ParseType(s string) (T, error) {
	s = strings.TrimSpace(s)
	up := strings.ToUpper(s)
	switch {
	case up == "BOOLEAN" || up == "BOOL":
		return TBool, nil
	case up == "INT" || up == "INTEGER" || up == "SMALLINT" || up == "TINYINT":
		return TInt, nil
	case up == "BIGINT" || up == "LONG":
		return TBigint, nil
	case up == "DOUBLE" || up == "FLOAT" || up == "REAL":
		return TDouble, nil
	case up == "STRING" || up == "TEXT" || up == "BINARY":
		return TString, nil
	case up == "DATE":
		return TDate, nil
	case up == "TIMESTAMP":
		return TTimestamp, nil
	case strings.HasPrefix(up, "DECIMAL"):
		p, sc := 10, 0
		if i := strings.IndexByte(up, '('); i >= 0 {
			j := strings.IndexByte(up, ')')
			if j < i {
				return TUnknown, fmt.Errorf("types: malformed decimal %q", s)
			}
			parts := strings.Split(up[i+1:j], ",")
			var err error
			if p, err = strconv.Atoi(strings.TrimSpace(parts[0])); err != nil {
				return TUnknown, fmt.Errorf("types: malformed decimal %q", s)
			}
			if len(parts) > 1 {
				if sc, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
					return TUnknown, fmt.Errorf("types: malformed decimal %q", s)
				}
			}
		}
		return TDecimal(p, sc), nil
	case strings.HasPrefix(up, "VARCHAR") || strings.HasPrefix(up, "CHAR"):
		n := 0
		if i := strings.IndexByte(up, '('); i >= 0 {
			j := strings.IndexByte(up, ')')
			if j > i {
				n, _ = strconv.Atoi(strings.TrimSpace(up[i+1 : j]))
			}
		}
		return T{Kind: String, Precision: n}, nil
	case strings.HasPrefix(up, "ARRAY<") && strings.HasSuffix(up, ">"):
		elem, err := ParseType(s[6 : len(s)-1])
		if err != nil {
			return TUnknown, err
		}
		return TArray(elem), nil
	case strings.HasPrefix(up, "MAP<") && strings.HasSuffix(up, ">"):
		inner := s[4 : len(s)-1]
		depth, comma := 0, -1
		for i, c := range inner {
			switch c {
			case '<':
				depth++
			case '>':
				depth--
			case ',':
				if depth == 0 && comma < 0 {
					comma = i
				}
			}
		}
		if comma < 0 {
			return TUnknown, fmt.Errorf("types: malformed map %q", s)
		}
		k, err := ParseType(inner[:comma])
		if err != nil {
			return TUnknown, err
		}
		v, err := ParseType(inner[comma+1:])
		if err != nil {
			return TUnknown, err
		}
		return TMap(k, v), nil
	}
	return TUnknown, fmt.Errorf("types: unknown type %q", s)
}

// CommonSupertype returns the type both operands should be coerced to for
// comparison or arithmetic, following Hive's numeric widening hierarchy
// INT → BIGINT → DECIMAL → DOUBLE, with STRING coercible to any numeric.
func CommonSupertype(a, b T) (T, bool) {
	if a.Kind == b.Kind {
		if a.Kind == Decimal {
			s := a.Scale
			if b.Scale > s {
				s = b.Scale
			}
			p := a.Precision
			if b.Precision > p {
				p = b.Precision
			}
			return TDecimal(p, s), true
		}
		return a, true
	}
	if a.Kind == Unknown {
		return b, true
	}
	if b.Kind == Unknown {
		return a, true
	}
	rank := func(k Kind) int {
		switch k {
		case Int32:
			return 1
		case Int64:
			return 2
		case Decimal:
			return 3
		case Float64:
			return 4
		}
		return 0
	}
	ra, rb := rank(a.Kind), rank(b.Kind)
	if ra > 0 && rb > 0 {
		if ra >= rb {
			return a, true
		}
		return b, true
	}
	// STRING compares with numerics and temporals as the non-string side.
	if a.Kind == String && (rank(b.Kind) > 0 || b.Kind == Date || b.Kind == Timestamp) {
		return b, true
	}
	if b.Kind == String && (rank(a.Kind) > 0 || a.Kind == Date || a.Kind == Timestamp) {
		return a, true
	}
	// DATE and TIMESTAMP compare as TIMESTAMP.
	if (a.Kind == Date && b.Kind == Timestamp) || (a.Kind == Timestamp && b.Kind == Date) {
		return TTimestamp, true
	}
	// DATE/TIMESTAMP +- INTERVAL keeps the temporal type.
	if a.Kind == Interval && (b.Kind == Date || b.Kind == Timestamp) {
		return b, true
	}
	if b.Kind == Interval && (a.Kind == Date || a.Kind == Timestamp) {
		return a, true
	}
	return TUnknown, false
}
