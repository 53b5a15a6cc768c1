//! One transition table, every substrate.
//!
//! The ZNS zone state machine is implemented once, in
//! [`crate::ZoneTable`]; `ZnsDevice` (the flash-timed simulator) and
//! bh-zbd's `ZbdDevice` (the file-backed emulator) each hold a table and
//! add only their media. This module holds the legality matrix — for
//! every zone state, what each zoned command must do — and a driver
//! generic over [`ZonedDevice`] that checks it through a device's public
//! surface. Both crates' test suites call [`check_state_machine`] with
//! their own factory, so the one implementation is held to the matrix
//! through both substrates: what a media half does around the table
//! (logging, programming, a refused command's side effects) cannot
//! change what a command means.
//!
//! `Offline` is reachable only by wearing out every backing block of a
//! flash zone, so [`check_state_machine`] skips its row; the unit test
//! below checks it against the table directly.

use crate::backend::ZonedDevice;
use crate::zone::{ZoneId, ZoneState};
use crate::ZnsError;
use bh_metrics::Nanos;

/// The zoned commands the matrix exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneOp {
    /// Explicit open.
    Open,
    /// Close an opened zone.
    Close,
    /// Finish (force Full).
    Finish,
    /// Reset (rewind).
    Reset,
    /// Write one page at the current write pointer.
    Write,
    /// Zone append.
    Append,
    /// Read offset 0.
    Read,
}

/// Error classes the matrix distinguishes (the `ZnsError` variant, minus
/// payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// `ZnsError::WrongState`.
    WrongState,
    /// `ZnsError::ZoneFull`.
    ZoneFull,
    /// `ZnsError::ZoneReadOnly`.
    ZoneReadOnly,
    /// `ZnsError::ZoneOffline`.
    ZoneOffline,
    /// `ZnsError::ReadBeyondWritePointer`.
    ReadBeyond,
}

/// What the table expects of one (state, op) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The command succeeds and the zone ends in this state.
    Legal(ZoneState),
    /// The command fails with this error class and the zone state does
    /// not change.
    Illegal(ErrKind),
}

fn classify(e: &ZnsError) -> ErrKind {
    match e {
        ZnsError::WrongState { .. } => ErrKind::WrongState,
        ZnsError::ZoneFull(_) => ErrKind::ZoneFull,
        ZnsError::ZoneReadOnly(_) => ErrKind::ZoneReadOnly,
        ZnsError::ZoneOffline(_) => ErrKind::ZoneOffline,
        ZnsError::ReadBeyondWritePointer { .. } => ErrKind::ReadBeyond,
        other => panic!("unexpected error class in conformance run: {other:?}"),
    }
}

use ErrKind::*;
use Outcome::{Illegal, Legal};
use ZoneOp::*;
use ZoneState::*;

/// The legality matrix: every start state crossed with every
/// command. Start states other than `Empty` hold one written page, so
/// `Read` at offset 0 has data to find and `Close` lands in `Closed`
/// rather than rewinding to `Empty`.
pub const TRANSITIONS: &[(ZoneState, ZoneOp, Outcome)] = &[
    // Empty: everything but close/read is legal.
    (Empty, Open, Legal(ExplicitlyOpened)),
    (Empty, Close, Illegal(WrongState)),
    (Empty, Finish, Legal(Full)),
    (Empty, Reset, Legal(Empty)),
    (Empty, Write, Legal(ImplicitlyOpened)),
    (Empty, Append, Legal(ImplicitlyOpened)),
    (Empty, Read, Illegal(ReadBeyond)),
    // Implicitly opened: open promotes, close demotes, writes continue.
    (ImplicitlyOpened, Open, Legal(ExplicitlyOpened)),
    (ImplicitlyOpened, Close, Legal(Closed)),
    (ImplicitlyOpened, Finish, Legal(Full)),
    (ImplicitlyOpened, Reset, Legal(Empty)),
    (ImplicitlyOpened, Write, Legal(ImplicitlyOpened)),
    (ImplicitlyOpened, Append, Legal(ImplicitlyOpened)),
    (ImplicitlyOpened, Read, Legal(ImplicitlyOpened)),
    // Explicitly opened: open is a no-op; writes never demote to
    // implicit.
    (ExplicitlyOpened, Open, Legal(ExplicitlyOpened)),
    (ExplicitlyOpened, Close, Legal(Closed)),
    (ExplicitlyOpened, Finish, Legal(Full)),
    (ExplicitlyOpened, Reset, Legal(Empty)),
    (ExplicitlyOpened, Write, Legal(ExplicitlyOpened)),
    (ExplicitlyOpened, Append, Legal(ExplicitlyOpened)),
    (ExplicitlyOpened, Read, Legal(ExplicitlyOpened)),
    // Closed: a write implicitly reopens; close is not idempotent.
    (Closed, Open, Legal(ExplicitlyOpened)),
    (Closed, Close, Illegal(WrongState)),
    (Closed, Finish, Legal(Full)),
    (Closed, Reset, Legal(Empty)),
    (Closed, Write, Legal(ImplicitlyOpened)),
    (Closed, Append, Legal(ImplicitlyOpened)),
    (Closed, Read, Legal(Closed)),
    // Full: only reset (and redundant finish) makes progress.
    (Full, Open, Illegal(ZoneFull)),
    (Full, Close, Illegal(WrongState)),
    (Full, Finish, Legal(Full)),
    (Full, Reset, Legal(Empty)),
    (Full, Write, Illegal(ZoneFull)),
    (Full, Append, Illegal(ZoneFull)),
    (Full, Read, Legal(Full)),
    // ReadOnly: reads survive, everything else is refused — including
    // reset (the zone no longer trusts its media).
    (ReadOnly, Open, Illegal(ZoneReadOnly)),
    (ReadOnly, Close, Illegal(WrongState)),
    (ReadOnly, Finish, Illegal(WrongState)),
    (ReadOnly, Reset, Illegal(ZoneReadOnly)),
    (ReadOnly, Write, Illegal(ZoneReadOnly)),
    (ReadOnly, Append, Illegal(ZoneReadOnly)),
    (ReadOnly, Read, Legal(ReadOnly)),
    // Offline: nothing is legal, reads included — the zone has no media.
    (Offline, Open, Illegal(ZoneOffline)),
    (Offline, Close, Illegal(WrongState)),
    (Offline, Finish, Illegal(WrongState)),
    (Offline, Reset, Illegal(ZoneOffline)),
    (Offline, Write, Illegal(ZoneOffline)),
    (Offline, Append, Illegal(ZoneOffline)),
    (Offline, Read, Illegal(ZoneOffline)),
];

/// Drives zone 0 of a fresh device into `target`. All states except
/// `Empty` carry one written page.
fn prepare<D: ZonedDevice>(dev: &mut D, target: ZoneState) {
    let z = ZoneId(0);
    let t = Nanos::ZERO;
    match target {
        Empty => {}
        ImplicitlyOpened => {
            dev.append(z, 0xC0FFEE, t).unwrap();
        }
        ExplicitlyOpened => {
            dev.append(z, 0xC0FFEE, t).unwrap();
            dev.open(z).unwrap();
        }
        Closed => {
            dev.append(z, 0xC0FFEE, t).unwrap();
            dev.close(z).unwrap();
        }
        Full => {
            dev.append(z, 0xC0FFEE, t).unwrap();
            dev.finish(z).unwrap();
        }
        ReadOnly => {
            dev.append(z, 0xC0FFEE, t).unwrap();
            dev.inject_read_only(z).unwrap();
        }
        Offline => unreachable!("the driver skips the Offline row"),
    }
    assert_eq!(dev.zone(z).unwrap().state(), target, "prepare({target:?})");
}

fn apply<D: ZonedDevice>(dev: &mut D, op: ZoneOp) -> Result<(), ZnsError> {
    let z = ZoneId(0);
    let t = Nanos::ZERO;
    match op {
        Open => dev.open(z),
        Close => dev.close(z),
        Finish => dev.finish(z),
        Reset => dev.reset(z, t).map(|_| ()),
        Write => {
            let wp = dev.zone(z).unwrap().write_pointer();
            dev.write(z, wp, 0xF00D, t).map(|_| ())
        }
        Append => dev.append(z, 0xF00D, t).map(|_| ()),
        Read => dev.read(z, 0, t).map(|_| ()),
    }
}

/// Checks a device implementation against [`TRANSITIONS`] (bar the
/// `Offline` row, which no command can reach): every cell gets a fresh
/// device from `mk`, zone 0 is driven into the start state,
/// the command applied, and the outcome (success + end state, or error
/// class + unchanged state) asserted. Then a handful of write-pointer
/// discipline invariants the matrix cannot express are checked.
///
/// `mk` must build a device with at least 2 zones whose capacity is at
/// least 3 pages, a fault-free plan, and room for at least one active
/// and open zone.
///
/// # Panics
///
/// Panics (failing the calling test) on any divergence from the table.
pub fn check_state_machine<D: ZonedDevice>(mut mk: impl FnMut() -> D) {
    let z = ZoneId(0);
    let reachable = TRANSITIONS.iter().filter(|(start, ..)| *start != Offline);
    for &(start, op, expect) in reachable {
        let mut dev = mk();
        prepare(&mut dev, start);
        let wp_before = dev.zone(z).unwrap().write_pointer();
        let got = apply(&mut dev, op);
        let end = dev.zone(z).unwrap().state();
        match expect {
            Legal(want_state) => {
                assert!(
                    got.is_ok(),
                    "{start:?} + {op:?}: expected legal, got {got:?}"
                );
                assert_eq!(end, want_state, "{start:?} + {op:?}: wrong end state");
                let wp = dev.zone(z).unwrap().write_pointer();
                match op {
                    Write | Append => assert_eq!(wp, wp_before + 1, "{start:?} + {op:?}"),
                    Reset => assert_eq!(wp, 0, "{start:?} + reset must rewind"),
                    _ => assert_eq!(wp, wp_before, "{start:?} + {op:?} moved the pointer"),
                }
            }
            Illegal(kind) => {
                let e = got.expect_err(&format!("{start:?} + {op:?}: expected refusal"));
                assert_eq!(classify(&e), kind, "{start:?} + {op:?}: wrong error {e:?}");
                assert_eq!(end, start, "{start:?} + {op:?}: refused op moved the state");
                assert_eq!(
                    dev.zone(z).unwrap().write_pointer(),
                    wp_before,
                    "{start:?} + {op:?}: refused op moved the pointer"
                );
            }
        }
    }

    // Write-pointer discipline beyond the matrix.
    let t = Nanos::ZERO;

    // Off-pointer writes are Zone Invalid Write, both ahead and behind.
    let mut dev = mk();
    dev.append(z, 1, t).unwrap();
    for bad in [0u64, 2] {
        match dev.write(z, bad, 9, t) {
            Err(ZnsError::NotAtWritePointer { wp, got, .. }) => {
                assert_eq!((wp, got), (1, bad));
            }
            other => panic!("off-pointer write at {bad}: {other:?}"),
        }
    }

    // Appends fill to capacity exactly, then the zone is Full.
    let mut dev = mk();
    let cap = dev.zone_capacity();
    for i in 0..cap {
        let (off, _) = dev.append(z, i, t).unwrap();
        assert_eq!(off, i, "append offsets must be dense");
    }
    assert_eq!(dev.zone(z).unwrap().state(), Full);
    assert!(matches!(dev.append(z, 0, t), Err(ZnsError::ZoneFull(_))));

    // Reset rewinds and counts; the data is gone from the report view.
    let before = dev.zone(z).unwrap().resets();
    dev.reset(z, t).unwrap();
    let zone = dev.zone(z).unwrap();
    assert_eq!(zone.state(), Empty);
    assert_eq!(zone.write_pointer(), 0);
    assert_eq!(zone.resets(), before + 1);
    assert!(matches!(
        dev.read(z, 0, t),
        Err(ZnsError::ReadBeyondWritePointer { .. })
    ));

    // Closing an explicitly opened zone that never wrote rewinds to
    // Empty — closed-with-no-data does not hold active resources.
    let mut dev = mk();
    dev.open(z).unwrap();
    assert_eq!(dev.active_zones(), 1);
    dev.close(z).unwrap();
    assert_eq!(dev.zone(z).unwrap().state(), Empty);
    assert_eq!(dev.active_zones(), 0);

    // Round-trip: what append stored, read returns, on every zone.
    let mut dev = mk();
    for zi in 0..2u32 {
        for i in 0..3u64 {
            dev.append(ZoneId(zi), 100 * zi as u64 + i, t).unwrap();
        }
    }
    for zi in 0..2u32 {
        for i in 0..3u64 {
            let (stamp, _) = dev.read(ZoneId(zi), i, t).unwrap();
            assert_eq!(stamp, 100 * zi as u64 + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Zone, ZoneTable};
    use bh_flash::BlockId;

    /// The `Offline` row, against the table every device holds: a reset
    /// that retires the zone's last block takes it Offline, and from
    /// there every command is refused with its class, moving nothing.
    #[test]
    fn offline_row_holds_on_the_table() {
        let row = TRANSITIONS.iter().filter(|(start, ..)| *start == Offline);
        let mut cells = 0;
        for &(_, op, expect) in row {
            let z = ZoneId(0);
            let zones = vec![Zone::new(z, vec![BlockId(0)], 4, 4)];
            let mut t = ZoneTable::new(zones, 1, 1, 8);
            t.prepare_write(z, None).unwrap();
            t.commit_write(z);
            t.resettable(z).unwrap();
            t.rewind(z, &[BlockId(0)], 4);
            assert_eq!(t.zone(z).unwrap().state(), Offline);
            let tallies = (t.active_zones(), t.open_zones(), t.empty_zones());
            assert_eq!(tallies, (0, 0, 0));
            let got = match op {
                Open => t.open(z),
                Close => t.close(z),
                Finish => t.finish(z).map(|_| ()),
                Reset => t.resettable(z),
                Write => t.prepare_write(z, Some(0)).map(|_| ()),
                Append => t.prepare_write(z, None).map(|_| ()),
                Read => t.readable(z, 0).map(|_| ()),
            };
            let e = got.expect_err(&format!("Offline + {op:?}: expected refusal"));
            assert_eq!(expect, Illegal(classify(&e)), "Offline + {op:?}: {e:?}");
            assert_eq!(t.zone(z).unwrap().state(), Offline, "Offline + {op:?}");
            assert_eq!(
                (t.active_zones(), t.open_zones(), t.empty_zones()),
                tallies,
                "Offline + {op:?} moved a tally"
            );
            cells += 1;
        }
        assert_eq!(cells, 7);
    }
}
