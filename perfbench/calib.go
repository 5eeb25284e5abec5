package main

import (
	"sync"
	"time"
)

// The calibration load is fixed work that uses none of the program's code
// but loads the host the way the workloads do: calibRanks goroutines pass
// freshly allocated halo messages round a ring over channels, update their
// own block of cells, and keep copies of their last calibLogged blocks in a
// map, as a sender-based log would. So it parks and wakes goroutines on
// every Go processor, allocates, collects garbage and walks a few MiB of
// state. Its host time tracks how fast the host runs such code at the
// moment; rank_steps_per_cal divides it out.
const (
	calibRanks  = 4096
	calibCells  = 64
	calibRounds = 60
	calibLogged = 8
)

// calibrate runs the calibration load once. It returns the host time and a
// checksum of the final cells, which is the same on every call.
func calibrate() (time.Duration, float64) {
	in := make([]chan []float64, calibRanks)
	for i := range in {
		in[i] = make(chan []float64, 1)
	}
	blocks := make([][]float64, calibRanks)
	for i := range blocks {
		blocks[i] = make([]float64, calibCells)
		for j := range blocks[i] {
			blocks[i][j] = float64((i*calibCells+j)%97) / 97
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range calibRanks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, next := blocks[i], make([]float64, calibCells)
			log := make(map[int][]float64, calibLogged+1)
			for r := range calibRounds {
				in[(i+1)%calibRanks] <- []float64{b[calibCells-1], float64(r)}
				log[r] = append([]float64(nil), b...)
				delete(log, r-calibLogged)
				prev := (<-in[i])[0]
				for j := range b {
					right := b[j]
					if j+1 < calibCells {
						right = b[j+1]
					}
					next[j] = 0.25*prev + 0.5*b[j] + 0.25*right
					prev = b[j]
				}
				b, next = next, b
			}
			blocks[i] = b
		}()
	}
	wg.Wait()
	took := time.Since(start)
	var sum float64
	for _, b := range blocks {
		for _, v := range b {
			sum += v
		}
	}
	return took, sum
}
