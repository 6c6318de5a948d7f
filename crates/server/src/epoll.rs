//! A thin, raw-syscall readiness shim over Linux `epoll`.
//!
//! The offline build rules out mio/tokio, so this module declares the three
//! syscall wrappers the event loop needs — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait` — directly against the libc that `std` already links
//! (`extern "C"`, no new crates). The surface is deliberately tiny: a
//! level-triggered [`Epoll`] instance with add/modify/delete/wait.
//!
//! Level-triggered mode everywhere: the event loop masks interest on a
//! per-connection basis (`EPOLL_CTL_MOD`) instead of draining edge
//! notifications, which keeps the state machine simple and immune to the
//! classic lost-edge bugs. Linux-only by construction — exactly like the
//! rest of the serving deployment story.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;
use std::time::Duration;

/// One readiness notification. Layout must match the kernel's
/// `struct epoll_event`, which is packed on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Debug, Default)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token, returned verbatim with each notification.
    pub data: u64,
}

impl EpollEvent {
    /// The readiness bitmask (reads through the possibly-packed field).
    pub fn readiness(&self) -> u32 {
        let e = *self;
        e.events
    }

    /// The caller token (reads through the possibly-packed field).
    pub fn token(&self) -> u64 {
        let e = *self;
        e.data
    }
}

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, need not be requested).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up: both directions closed (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (half-close; must be requested).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake at most one of the epoll instances sharing this fd (kernel ≥ 4.5);
/// the listener uses it to avoid a thundering herd across loop threads.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EINTR: i32 = 4;
const EINVAL: i32 = 22;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// One epoll instance (level-triggered). Closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// A fresh epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Self> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given interest mask and token.
    ///
    /// `EPOLLEXCLUSIVE` requires kernel ≥ 4.5; when the kernel refuses it
    /// (`EINVAL`), registration falls back to plain shared wakeups —
    /// correct, just herd-prone.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        match self.ctl(EPOLL_CTL_ADD, fd, interest, token) {
            Err(e) if e.raw_os_error() == Some(EINVAL) && interest & EPOLLEXCLUSIVE != 0 => {
                self.ctl(EPOLL_CTL_ADD, fd, interest & !EPOLLEXCLUSIVE, token)
            }
            other => other,
        }
    }

    /// Change the interest mask of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister `fd`. (Closing the fd deregisters implicitly; the explicit
    /// form exists for fds that outlive their registration, like the shared
    /// listener at shutdown.)
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block for readiness, filling `events`. Returns how many entries were
    /// written. `None` blocks indefinitely; `Some(d)` caps the wait, rounded
    /// up to whole milliseconds so a short timeout cannot spin; only
    /// `Duration::ZERO` polls without blocking. `EINTR` retries.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => c_int::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
        };
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    c_int::try_from(events.len()).unwrap_or(c_int::MAX),
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINTR) {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    use super::*;

    #[test]
    fn a_readable_fd_rouses_an_epoll_wait() {
        let epoll = Epoll::new().unwrap();
        let (mut reader, mut writer) = UnixStream::pair().unwrap();
        epoll.add(reader.as_raw_fd(), EPOLLIN, 7).unwrap();

        // Nothing pending: a bounded wait times out empty.
        let mut events = [EpollEvent::default(); 8];
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);

        // A write from another thread is observed with the right token.
        let n = std::thread::scope(|scope| {
            scope.spawn(|| writer.write_all(b"x").unwrap());
            epoll
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap()
        });
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);

        // Drained, the level-triggered fd goes quiet again.
        reader.read_exact(&mut [0u8; 1]).unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn modify_and_delete_change_interest() {
        let epoll = Epoll::new().unwrap();
        let (reader, mut writer) = UnixStream::pair().unwrap();
        let fd = reader.as_raw_fd();
        epoll.add(fd, EPOLLIN, 1).unwrap();
        writer.write_all(b"x").unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(
            epoll
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap(),
            1
        );
        // Interest masked to nothing: the pending readability is no longer
        // reported (ERR/HUP would still be).
        epoll.modify(fd, 0, 1).unwrap();
        assert_eq!(
            epoll
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0
        );
        epoll.delete(fd).unwrap();
        assert!(epoll.delete(fd).is_err(), "double delete reports");
    }
}
