// Package deadfix exercises the deadexport analyzer: exported names with
// no reference outside their own declaration are flagged; names another
// declaration uses, unexported names and justified escapes are not. A
// blank interface assertion does not keep a type alive.
package deadfix

import "fmt"

func Dead() {} // want `Dead is exported but no non-test file of the module references it`

// Live is called by helper, so it stays.
func Live() int { return 1 }

func helper() int { return Live() + limit }

const limit = 3

// Recursive calls only itself.
func Recursive(n int) int { // want `Recursive is exported but`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Loner is named only by its own methods.
type Loner struct{} // want `Loner is exported but`

func (l *Loner) Self() *Loner { return l }

// Asserted is referenced only by a blank interface assertion.
type Asserted struct{} // want `Asserted is exported but`

func (Asserted) String() string { return "asserted" }

var _ fmt.Stringer = Asserted{}

// Config is the type of Current, so it stays.
type Config struct{ N int }

var Current = Config{N: helper()} // want `Current is exported but`

//lint:deadexport read by a planned caller
func Escaped() {}

//lint:deadexport read by a planned caller
const (
	GroupA = 1
	GroupB = 2
)

//lint:deadexport
func Unjustified() {} // want `lacks the required justification`
