//! Wait precision of [`BatchIo::recv_batch`]: on an idle endpoint the
//! wait lasts at least the requested timeout, sub-millisecond remainders
//! included, and the batched backend spends exactly one `ppoll` on it.
//!
//! The runtime's event loop computes its wait budget from the
//! protocol's next deadline (the token hold), so a wait that returns
//! early costs a spurious re-poll and one truncated to whole
//! milliseconds makes the token ring run slower than its configured
//! rate. Only a lower bound on the wait is asserted: an upper bound
//! would depend on how busy the host is.

use raincore_net::batch::{BatchConfig, BatchIo, IoBackend};
use raincore_net::Addr;
use raincore_types::NodeId;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const TIMEOUTS_US: [u64; 3] = [300, 1_500, 2_700];
const ROUNDS: usize = 5;

fn idle_endpoint(backend: IoBackend) -> BatchIo {
    let addr = Addr::primary(NodeId(0));
    let local: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let cfg = BatchConfig {
        backend,
        ..BatchConfig::default()
    };
    BatchIo::bind(&[(addr, local)], HashMap::new(), cfg).unwrap()
}

fn check_backend(backend: IoBackend) {
    let mut io = idle_endpoint(backend);
    let batched = io.backend() == IoBackend::Batched;
    let mut out = Vec::new();
    for us in TIMEOUTS_US {
        let timeout = Duration::from_micros(us);
        for _ in 0..ROUNDS {
            let polls = io.metrics().syscalls_poll.get();
            let start = Instant::now();
            let got = io.recv_batch(&mut out, timeout);
            let waited = start.elapsed();
            assert_eq!(got, 0, "{backend:?}: idle endpoint received data");
            assert!(
                waited >= timeout,
                "{backend:?}: returned after {waited:?}, before its {timeout:?} timeout"
            );
            if batched {
                assert_eq!(
                    io.metrics().syscalls_poll.get() - polls,
                    1,
                    "{backend:?}: one wait must be exactly one ppoll at {timeout:?}"
                );
            }
        }
    }
}

#[test]
fn batched_wait_lasts_the_full_timeout_in_one_ppoll() {
    check_backend(IoBackend::Batched);
}

#[test]
fn scalar_wait_lasts_the_full_timeout() {
    check_backend(IoBackend::Scalar);
}
