// Package a is the hotalloc fixture: growth-class allocations inside
// //lint:hotpath regions are flagged; identical code outside them is
// not.
package a

import (
	"fmt"
	"unsafe"
)

type S struct {
	vals      []int
	completed []int
}

func sink(v any) {}

// hot is marked hot through its doc comment, so the whole body is a
// hot region.
//
//lint:hotpath
func (s *S) hot(n int) {
	s.vals = append(s.vals, n) // want `append in hot path can grow its backing array`
	m := make([]int, 8)        // want `make allocates in hot path`
	_ = m
	p := new(int) // want `new allocates in hot path`
	_ = p
	fmt.Println(n)               // want `fmt\.Println in hot path allocates and boxes`
	_ = map[int]int{1: 2}        // want `map literal allocates in hot path`
	_ = []int{n}                 // want `slice literal allocates in hot path`
	f := func() int { return n } // want `function literal in hot path captures n`
	_ = f()
	var box any
	box = n // want `boxes the value in hot path`
	_ = box
	sink(n) // want `passing int as interface .* boxes the value in hot path`
}

func cold(s *S, n int) {
	s.vals = append(s.vals, n) // ok: not in a hot region
	//lint:hotpath
	for i := 0; i < n; i++ {
		s.vals = append(s.vals, i) // want `append in hot path can grow its backing array`
	}
	s.vals = append(s.vals, n) // ok: after the annotated statement
}

// fixed shows the sanctioned shapes: indexed writes into capacity
// reserved outside the region, and struct-literal pool misses.
//
//lint:hotpath
func (s *S) fixed(n int) {
	k := len(s.completed)
	s.completed = s.completed[:k+1] // ok: reslice within reserved capacity
	s.completed[k] = n              // ok: indexed write
	_ = &S{}                        // ok: struct literals are construction, not growth
}

func suppressed(s *S, n int) {
	//lint:hotpath
	{
		//lint:ignore hotalloc fixture demonstrates a justified suppression
		s.vals = append(s.vals, n)
	}
}

// H is an interface a pointer can satisfy.
type H interface{ Fire(int) }

func (s *S) Fire(int) {}

func handle(h H) {}

// pointerShaped stores values that fit the interface word, which
// allocates nothing and is not reported; the int beside them still is.
//
//lint:hotpath
func (s *S) pointerShaped(m map[int]int, c chan int, f func(), p unsafe.Pointer) {
	handle(s) // ok: a pointer is stored as is
	sink(s)   // ok
	sink(m)   // ok: a map is a pointer
	sink(c)   // ok: so is a chan
	sink(f)   // ok: and a func
	sink(p)   // ok: and an unsafe.Pointer
	var h H
	h = s // ok
	_ = h
	_ = H(s)   // ok
	_ = any(f) // ok
	_ = any(3) // want `converting int to interface any boxes the value in hot path`
}

//lint:hotpath // want `//lint:hotpath is not attached to a function or statement`
