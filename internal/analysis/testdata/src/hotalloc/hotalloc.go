// Package fixture exercises the hotalloc analyzer: no allocations inside
// loops of //iprune:hotpath functions.
package fixture

//iprune:hotpath
func hot(n int) []int {
	out := make([]int, 0, n) // outside any loop: fine
	for i := 0; i < n; i++ {
		tmp := make([]int, 4) // want `make in hot loop`
		_ = tmp
		out = append(out, i) // want `append in hot loop`
		m := map[int]int{}   // want `map literal allocated in hot loop`
		_ = m
		p := new(int) // want `new in hot loop`
		_ = p
		f := func() int { return i } // want `closure allocated in hot loop`
		_ = f()
	}
	return out
}

//iprune:hotpath
func hotRange(xs []int) int {
	s := 0
	for _, x := range xs {
		buf := make([]int, 1) // want `make in hot loop`
		buf[0] = x
		s += buf[0]
	}
	return s
}

// cold is unmarked: allocations in its loops are nobody's business.
func cold(n int) {
	for i := 0; i < n; i++ {
		_ = make([]int, 4)
	}
}

//iprune:hotpath
func hotEscaped(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i) //iprune:allow-alloc appends into a preallocated slice
	}
	return out
}

//iprune:hotpath
func nestedLoops(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			row := make([]int, n) // want `make in hot loop`
			s += len(row) + i + j
		}
	}
	return s
}

// A loop's header runs as often as the code around the loop: the outer
// range expression runs once, an inner loop's range expression and
// condition once per outer iteration.
//
//iprune:hotpath
func innerHeaders(rows [][]int) int {
	s := 0
	for i := range append(rows, nil) {
		for _, x := range append(rows[i], 0) { // want `append in hot loop`
			s += x
		}
		for j := 0; j < len(make([]int, i)); j++ { // want `make in hot loop`
			s += j
		}
	}
	return s
}
