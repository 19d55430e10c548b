//! Seeded violation: a transport that implements the trait but was never
//! added to the `TRANSPORTS` registry, so `dial`/`bind` cannot reach it.

pub struct RdmaSimTransport;

impl Transport for RdmaSimTransport {
    fn scheme(&self) -> &'static str {
        "rdma-sim"
    }
}
