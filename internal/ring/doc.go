// Package ring provides lock-free bounded queues modeled on DPDK's rte_ring.
//
// Two variants are provided:
//
//   - SPSC: a single-producer single-consumer ring. This is the building
//     block for dpdkr port channels (both the normal channel to the vSwitch
//     and the direct bypass channel between two VMs), where each end is owned
//     by exactly one poll-mode thread.
//   - MPMC: a multi-producer multi-consumer ring (producer and consumer
//     head/tail pairs; one CAS reserves a whole burst of slots), used for
//     mempool freelists and any queue shared by several PMD loops.
//
// Both rings have power-of-two capacity, support batch enqueue/dequeue (the
// fast-path idiom throughout this repository), never allocate after
// construction, and are safe for concurrent use within their producer and
// consumer cardinality contracts.
package ring
