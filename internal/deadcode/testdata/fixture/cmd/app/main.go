package main

import (
	"fmt"

	"example.com/fixture/lib"
)

func main() { fmt.Println(lib.Live{}) }
