//! Workload profiles.

use serde::{Deserialize, Serialize};

/// The short-lived HTTP connection profile the paper's introduction
/// describes for Sina Weibo: a ~600-byte request, one connection per
/// request (HTTP keep-alive disabled). The ~1200-byte response is the
/// server's to send: `WebConfig::response_len` or
/// `ProxyConfig::response_len`. Closed and open loops both read their
/// session shape from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpWorkload {
    /// Request payload length in bytes.
    pub request_len: u16,
    /// Concurrent connections per server core (http_load runs a
    /// concurrency of 500 × cores in the paper's benchmarks).
    pub concurrency_per_core: u32,
    /// Requests per connection (HTTP keep-alive). The paper's
    /// benchmarks disable keep-alive (1 request per connection); larger
    /// values reproduce the *long-lived* regime of the introduction,
    /// where TCB management is infrequent and even the stock kernel
    /// scales.
    pub requests_per_conn: u32,
}

impl Default for HttpWorkload {
    fn default() -> Self {
        HttpWorkload {
            request_len: 600,
            concurrency_per_core: 500,
            requests_per_conn: 1,
        }
    }
}

impl HttpWorkload {
    /// Total client concurrency for a server with `cores` cores.
    pub fn concurrency(&self, cores: u16) -> u32 {
        self.concurrency_per_core * u32::from(cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let w = HttpWorkload::default();
        assert_eq!(w.request_len, 600);
        assert_eq!(w.concurrency(24), 12_000);
        assert_eq!(w.requests_per_conn, 1, "keep-alive off, as in the paper");
    }
}
