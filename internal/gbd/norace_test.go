//go:build !race

package gbd

const raceEnabled = false
