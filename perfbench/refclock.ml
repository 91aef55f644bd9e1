(* Wall clock normalised by a fixed reference loop.

   Raw wall-clock throughput of the simulator swings by tens of percent
   within and between runs on a shared machine.  The swings follow the
   memory system, not the core clock: the simulator allocates several
   hundred MB/s and touches a heap of tens of MB, and a neighbour's
   memory traffic slows it while an ALU- or L2-bound loop runs at full
   speed.  The reference loop therefore does the same kind of work: it
   streams writes through a 2 MB buffer, the size of the minor heap, and
   reads at random from a 16 MB table, about the size of the major
   heap.  Timing it right next to each measured slice gives the
   machine's speed at that moment; dividing by it turns wall seconds
   into reference seconds.

   The two tables are allocated on first use and the loop itself
   allocates nothing.  They are Bigarrays, outside the OCaml heap: as
   18 MB of live heap they would slow the GC's pacing (fewer, larger
   major cycles) and the simulator would be timed under a GC it does
   not have on its own. *)

open Bigarray

type table = (int, int_elt, c_layout) Array1.t

let now = Unix.gettimeofday
let write_words = 1 lsl 18 (* 2 MB *)
let read_words = 1 lsl 21 (* 16 MB *)

let tables =
  lazy
    (let (w : table) = Array1.create Int C_layout write_words in
     let (r : table) = Array1.create Int C_layout read_words in
     Array1.fill w 0;
     for i = 0 to read_words - 1 do
       Array1.unsafe_set r i ((i * 2654435761) land 0xffffff)
     done;
     (w, r))

let spin n =
  let (write_buf : table), (read_table : table) = Lazy.force tables in
  let rec go n x acc i =
    if n = 0 then acc
    else
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      Array1.unsafe_set write_buf i x;
      go (n - 1) x
        (acc + Array1.unsafe_get read_table (x land (read_words - 1)))
        ((i + 1) land (write_words - 1))
  in
  go n 88172645463325252 0 0

(* ~9 ms per block on the machine the benchmark was tuned on. *)
let block_iters = 1 lsl 18

(* One reference-second is the time [iters_per_ref_s] iterations take:
   about one wall second on the 2-vCPU x86-64 VM the benchmark was tuned
   on (33 ns per iteration). *)
let iters_per_ref_s = 30_000_000.

(** Runs one reference block; returns its wall nanoseconds per
    iteration. *)
let block () =
  ignore (Lazy.force tables);
  let t0 = now () in
  ignore (Sys.opaque_identity (spin block_iters));
  (now () -. t0) *. 1e9 /. float_of_int block_iters

(** [to_ref_s ~ns_per_iter wall] converts [wall] seconds, measured while
    the reference loop ran at [ns_per_iter], into reference seconds. *)
let to_ref_s ~ns_per_iter wall = wall /. (ns_per_iter *. 1e-9 *. iters_per_ref_s)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
