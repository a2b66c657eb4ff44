(** Extent/inode file-system core.

    The shared machinery behind the {!Hpfs} and {!Jfs} formats: a
    superblock, a data-block allocation bitmap, a fixed inode table whose
    inodes hold up to six extents, directories stored as ordinary file
    data, and (optionally) a write-ahead {!Journal} — journalled configs
    run every mutating operation as a transaction: mutated blocks are
    buffered in an overlay, durably journalled (checksummed records plus
    a commit record and a barrier) at the operation's success, and only
    then applied to the write-back cache.  That is the cost and the
    crash-consistency difference JFS brings: a power cut at any write
    loses no acknowledged operation, and recovery replays the journal at
    mount.

    Format-specific behaviour (name length, case rules, journalling) is
    injected through {!config}; the two public formats are thin wrappers
    choosing a config. *)

open Fs_types

type config = {
  cfg_format : string;
  cfg_max_name : int;
  cfg_case_sensitive : bool;
  cfg_journalled : bool;
}

val mkfs :
  Machine.Disk.t -> config -> ?start:int -> ?blocks:int -> ?inodes:int ->
  unit -> unit

val mount : Block_cache.t -> config -> ?start:int -> unit -> (pfs, fs_error) result

val journal_writes : Block_cache.t -> int
(** Journal-record writes observed through this cache (for tests and the
    driver ablation). *)

val journal_blocks : Block_cache.t -> int
(** Slots in the journal ring mounted over this cache (0 without one).
    A volume of [blocks] blocks gets [max 64 (blocks / 32)]. *)

val last_recovery : Block_cache.t -> Journal.recovery option
(** The most recent journal recovery scan run against this cache
    (mount-time or supervised-restart), if any. *)

val fsck : Block_cache.t -> config -> ?start:int -> unit -> string list
(** Standalone invariant scan: extent ranges, cross-linked blocks,
    bitmap-vs-extent agreement, strict directory parsing, dangling and
    duplicate entries, reference counts, sizes against held blocks.
    Returns one human-readable finding per violation; a consistent
    volume returns []. *)
