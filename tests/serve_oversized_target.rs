//! Regression guard: one served request must not be able to abort the whole
//! server.  An uncapped session admits any `target`, and the mechanism used
//! to size its release selection from it up front — a `target` of 10^12
//! asked the allocator for 32 TB and aborted the process.
//!
//! This test has its own binary because the request it sends never finishes:
//! the test returns without joining the server, and the runaway job ends
//! when the process exits.

use sgf::core::{PrivacyTestConfig, SynthesisEngine};
use sgf::data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf::serve::{serve, Client, ServeConfig, SessionEntry};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn an_oversized_target_does_not_abort_the_server() {
    let population = generate_acs(3_000, 61);
    let session = SynthesisEngine::builder()
        .privacy_test(PrivacyTestConfig::randomized(20, 4.0, 1.0))
        .seed(61)
        .train(&population, &acs_bucketizer(&acs_schema()))
        .unwrap();
    let handle = serve(ServeConfig::default(), vec![SessionEntry::new(session)]).unwrap();

    let mut runaway = TcpStream::connect(handle.addr()).unwrap();
    writeln!(runaway, r#"{{"verb":"generate","target":1000000000000}}"#).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let busy =
        |status: &sgf::serve::json::Value| status.get("busy_workers").and_then(|v| v.as_u64());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status().unwrap();
        if busy(&status) == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no worker picked the request up: {}",
            status.render()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // A worker is inside the runaway release, and the server keeps
    // answering.  Asking for a while gives an abort that is still
    // unwinding (printing a backtrace, say) time to end the process.
    let watch = Instant::now();
    while watch.elapsed() < Duration::from_secs(1) {
        let status = client.status().unwrap();
        assert_eq!(busy(&status), Some(1), "{}", status.render());
        std::thread::sleep(Duration::from_millis(10));
    }
}
