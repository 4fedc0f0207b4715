//! Linux batched-syscall bindings: `sendmmsg`, `recvmmsg`, `ppoll`.
//!
//! The offline build environment has no `libc` crate, so the three
//! functions the batched I/O engine needs are declared directly against
//! the C library the binary is already linked with. Only the fields this
//! crate actually uses are modeled; layouts are the 64-bit Linux ABI
//! (`struct msghdr` with `size_t msg_iovlen`, which is also
//! bit-compatible with musl's `int` + padding layout for the small
//! values used here on little-endian targets).
//!
//! This module is the single place in the workspace that crosses the FFI
//! boundary, and the only one allowed to use `unsafe` (the crate is
//! otherwise `deny(unsafe_code)`): every wrapper takes borrowed slices,
//! so the pointers handed to the kernel are valid for exactly the call's
//! duration, and every return value is routed through
//! `io::Error::last_os_error()` on failure.

#![allow(unsafe_code)]

use std::io;
use std::net::SocketAddr;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// `MSG_DONTWAIT`: make one `recvmmsg`/`sendmmsg` call non-blocking
/// regardless of the socket's file-status flags.
pub const MSG_DONTWAIT: i32 = 0x40;
/// `POLLIN`: readable-data event mask for [`poll_read`].
pub const POLLIN: i16 = 0x001;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;

/// `struct iovec`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct IoVec {
    /// Buffer base pointer.
    pub base: *mut u8,
    /// Buffer length in bytes.
    pub len: usize,
}

impl IoVec {
    /// An empty iovec (null base, zero length) for scratch-array init.
    pub const fn zero() -> IoVec {
        IoVec {
            base: std::ptr::null_mut(),
            len: 0,
        }
    }
}

/// `struct msghdr` (64-bit Linux layout).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct MsgHdr {
    /// Optional peer address (`sockaddr`), or null.
    pub name: *mut u8,
    /// Size of the structure behind `name`.
    pub namelen: u32,
    /// Scatter/gather array.
    pub iov: *mut IoVec,
    /// Number of entries in `iov`.
    pub iovlen: usize,
    /// Ancillary data (unused here; always null).
    pub control: *mut u8,
    /// Ancillary data length (always 0).
    pub controllen: usize,
    /// Flags on received messages (e.g. `MSG_TRUNC`).
    pub flags: i32,
}

impl MsgHdr {
    /// A zeroed header for scratch-array init.
    pub const fn zero() -> MsgHdr {
        MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: std::ptr::null_mut(),
            iovlen: 0,
            control: std::ptr::null_mut(),
            controllen: 0,
            flags: 0,
        }
    }
}

/// `struct mmsghdr`: one slot of a `sendmmsg`/`recvmmsg` batch.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct MMsgHdr {
    /// The per-message header.
    pub hdr: MsgHdr,
    /// Bytes transferred for this slot (set by the kernel).
    pub len: u32,
}

impl MMsgHdr {
    /// A zeroed slot for scratch-array init.
    pub const fn zero() -> MMsgHdr {
        MMsgHdr {
            hdr: MsgHdr::zero(),
            len: 0,
        }
    }
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: i32,
    /// Requested events ([`POLLIN`]).
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

/// `struct timespec` (64-bit Linux layout): the `ppoll` timeout.
#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

impl TimeSpec {
    fn from_duration(d: Duration) -> TimeSpec {
        TimeSpec {
            sec: d.as_secs().min(i64::MAX as u64) as i64,
            nsec: i64::from(d.subsec_nanos()),
        }
    }
}

/// A raw `sockaddr_in`/`sockaddr_in6` image plus its length, built once
/// per destination and pointed at by `msg_name`.
#[repr(C, align(8))]
#[derive(Clone, Copy)]
pub struct SockAddr {
    buf: [u8; 28],
    len: u32,
}

impl SockAddr {
    /// An all-zero placeholder for scratch-array init.
    pub const fn zero() -> SockAddr {
        SockAddr {
            buf: [0u8; 28],
            len: 0,
        }
    }

    /// Encodes `sa` into kernel `sockaddr` form.
    pub fn from_socket_addr(sa: &SocketAddr) -> SockAddr {
        let mut s = SockAddr::zero();
        match sa {
            SocketAddr::V4(v4) => {
                s.buf[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                s.buf[2..4].copy_from_slice(&v4.port().to_be_bytes());
                s.buf[4..8].copy_from_slice(&v4.ip().octets());
                s.len = 16;
            }
            SocketAddr::V6(v6) => {
                s.buf[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                s.buf[2..4].copy_from_slice(&v6.port().to_be_bytes());
                s.buf[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                s.buf[8..24].copy_from_slice(&v6.ip().octets());
                s.buf[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                s.len = 28;
            }
        }
        s
    }

    /// Base pointer for `msg_name`.
    pub fn as_ptr(&mut self) -> *mut u8 {
        self.buf.as_mut_ptr()
    }

    /// Length for `msg_namelen`.
    pub fn len(&self) -> u32 {
        self.len
    }
}

// SAFETY: the pointers inside these headers are scratch — they are
// written immediately before a `send_many`/`recv_many` call and are
// dead (never dereferenced) outside it. The structs themselves are
// plain data, so moving an engine that stores them between threads is
// sound; only the thread that filled them ever hands them to a syscall.
unsafe impl Send for IoVec {}
unsafe impl Send for MsgHdr {}
unsafe impl Send for MMsgHdr {}

extern "C" {
    fn sendmmsg(fd: i32, msgs: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn recvmmsg(
        fd: i32,
        msgs: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut core::ffi::c_void,
    ) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const TimeSpec,
        sigmask: *const core::ffi::c_void,
    ) -> i32;
}

/// Transmits up to `msgs.len()` datagrams in one syscall; returns how
/// many the kernel accepted (possibly fewer). `WouldBlock` surfaces as
/// an error. Retries `EINTR` internally.
pub fn send_many(fd: RawFd, msgs: &mut [MMsgHdr]) -> io::Result<usize> {
    loop {
        // SAFETY: `msgs` (and everything its headers point at — iovec
        // arrays, payload slices, sockaddr images) is owned by the
        // caller and outlives this call; `vlen` matches the slice len.
        let n = unsafe { sendmmsg(fd, msgs.as_mut_ptr(), msgs.len() as u32, MSG_DONTWAIT) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Receives up to `msgs.len()` datagrams in one non-blocking syscall;
/// returns how many arrived. `WouldBlock` surfaces as an error (callers
/// poll first). Retries `EINTR` internally.
pub fn recv_many(fd: RawFd, msgs: &mut [MMsgHdr]) -> io::Result<usize> {
    loop {
        // SAFETY: as in `send_many` — all pointed-at buffers are borrows
        // held by the caller across the call; the null timeout is
        // explicitly allowed by the recvmmsg ABI.
        let n = unsafe {
            recvmmsg(
                fd,
                msgs.as_mut_ptr(),
                msgs.len() as u32,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Waits up to `timeout` for any fd in `fds` to become readable;
/// returns the number of ready descriptors (0 = timeout). The full
/// nanosecond timeout reaches the kernel (`ppoll`), so a sub-millisecond
/// deadline is neither truncated nor rounded up. `EINTR` is retried
/// internally with the time remaining until the original deadline, so
/// a signal never stretches the total wait.
pub fn poll_read(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let start = Instant::now();
    let mut remaining = timeout;
    loop {
        let ts = TimeSpec::from_duration(remaining);
        // SAFETY: `fds` is a caller-held slice and `ts` a local, both
        // valid for the call; the null sigmask is explicitly allowed by
        // the ppoll ABI (keep the thread's current mask).
        let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        remaining = timeout.saturating_sub(start.elapsed());
    }
}
