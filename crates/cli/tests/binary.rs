//! End-to-end tests of the compiled `sketchtree` binary.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sketchtree")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sketchtree-bin-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn binary_ingest_query_roundtrip() {
    let xml = tmp("c.xml");
    let snap = tmp("s.bin");
    let mut corpus = String::new();
    for _ in 0..100 {
        corpus.push_str("<r><a>x</a></r>");
    }
    std::fs::write(&xml, corpus).unwrap();

    let out = Command::new(bin())
        .args([
            "ingest",
            xml.to_str().unwrap(),
            "--snapshot",
            snap.to_str().unwrap(),
            "--streams",
            "13",
            "--s1",
            "30",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ingested 100 documents"));

    let out = Command::new(bin())
        .args(["query", snap.to_str().unwrap(), "r(a)"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let est: f64 = stdout.trim().split('\t').nth(1).unwrap().parse().unwrap();
    assert!((est - 100.0).abs() < 25.0, "{stdout}");

    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&snap).ok();
}

#[test]
fn binary_stdin_ingestion() {
    use std::io::Write;
    let snap = tmp("stdin.bin");
    let mut child = Command::new(bin())
        .args(["ingest", "-", "--snapshot", snap.to_str().unwrap(), "--streams", "7"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"<a><b/></a><a><b/></a>")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ingested 2 documents"));
    std::fs::remove_file(&snap).ok();
}

#[test]
fn binary_usage_exit_codes() {
    let out = Command::new(bin()).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = Command::new(bin())
        .args(["query", "/nonexistent.bin", "a"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn binary_unknown_subcommand_prints_usage_to_stderr() {
    let out = Command::new(bin())
        .args(["frobnicate", "x"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "unknown subcommand must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'frobnicate'"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("remote-query"), "usage lists all commands: {stderr}");
    assert!(out.stdout.is_empty(), "errors go to stderr, not stdout");
}

#[test]
fn binary_bad_flag_value_fails_with_message() {
    let out = Command::new(bin())
        .args(["ingest", "-", "--s1", "not-a-number"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--s1"), "{stderr}");
}

/// Every independence degree `ingest` accepts must restore from its own
/// snapshot: the CLI admits exactly the range the snapshot decoder does,
/// and rejects the rest as a usage error before building anything.
#[test]
fn binary_independence_range_matches_snapshot_decoder() {
    let xml = tmp("indep.xml");
    std::fs::write(&xml, "<r><a>x</a></r>".repeat(20)).unwrap();
    for independence in ["2", "4", "5", "64"] {
        let snap = tmp(&format!("indep-{independence}.bin"));
        let out = Command::new(bin())
            .args(["ingest", xml.to_str().unwrap(), "--snapshot", snap.to_str().unwrap()])
            .args(["--streams", "7", "--independence", independence])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{independence}: {}", String::from_utf8_lossy(&out.stderr));
        let out = Command::new(bin())
            .args(["stats", snap.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{independence}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("trees processed     : 20"));
        std::fs::remove_file(&snap).ok();
    }
    for independence in ["0", "1", "65"] {
        let snap = tmp(&format!("indep-{independence}.bin"));
        let out = Command::new(bin())
            .args(["ingest", xml.to_str().unwrap(), "--snapshot", snap.to_str().unwrap()])
            .args(["--independence", independence])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "independence {independence} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--independence must be in 2..=64"), "{stderr}");
        assert!(!snap.exists(), "a rejected config must write no snapshot");
    }
    std::fs::remove_file(&xml).ok();
}

/// Observability path through the binary: `serve --metrics-port 0`, drive a
/// workload, then read the same state three ways — remote `stats`, remote
/// `stats --metrics [--json]` over SKTP, and a raw HTTP scrape of the
/// advertised `/metrics` endpoint.
#[test]
fn binary_serve_metrics_port_and_remote_stats() {
    use std::io::{BufRead, BufReader, Read, Write};
    let xml = tmp("metrics.xml");
    let mut corpus = String::new();
    for _ in 0..80 {
        corpus.push_str("<r><a>x</a></r>\n");
    }
    std::fs::write(&xml, corpus).unwrap();

    let mut server = Command::new(bin())
        .args(["serve", "127.0.0.1:0", "--metrics-port", "0", "--streams", "13", "--s1", "30"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut lines = BufReader::new(server.stdout.as_mut().unwrap());
    let mut first_line = String::new();
    lines.read_line(&mut first_line).unwrap();
    let addr = first_line.trim().strip_prefix("listening on ").expect("address line").to_string();
    let mut second_line = String::new();
    lines.read_line(&mut second_line).unwrap();
    let metrics_url = second_line.trim().strip_prefix("metrics on ").expect("metrics line");
    let metrics_addr = metrics_url
        .strip_prefix("http://")
        .and_then(|u| u.strip_suffix("/metrics"))
        .expect("http://host:port/metrics")
        .to_string();

    let out = Command::new(bin())
        .args(["remote-ingest", &addr, xml.to_str().unwrap()])
        .output()
        .expect("remote-ingest runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = Command::new(bin())
        .args(["remote-query", &addr, "r(a)"])
        .output()
        .expect("remote-query runs");
    assert!(out.status.success());

    // Remote summary: same shape as the snapshot-file stats.
    let out = Command::new(bin()).args(["stats", &addr]).output().expect("stats runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trees processed     : 80"), "{stdout}");
    assert!(stdout.contains("virtual streams"), "{stdout}");

    // Full exposition over SKTP.
    let out = Command::new(bin())
        .args(["stats", &addr, "--metrics"])
        .output()
        .expect("stats --metrics runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sketchtree_ingest_trees_total 80"), "{text}");
    assert!(text.contains("sktp_request_seconds_count{opcode=\"ingest_xml\"}"), "{text}");

    // And as JSON.
    let out = Command::new(bin())
        .args(["stats", &addr, "--metrics", "--json"])
        .output()
        .expect("stats --metrics --json runs");
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("sketchtree_ingest_trees_total"), "{json}");

    // Raw HTTP scrape of the advertised endpoint.
    let mut s = std::net::TcpStream::connect(metrics_addr.replace("0.0.0.0", "127.0.0.1"))
        .expect("metrics endpoint reachable");
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut scrape = String::new();
    s.read_to_string(&mut scrape).unwrap();
    assert!(scrape.starts_with("HTTP/1.0 200"), "{scrape}");
    assert!(scrape.contains("sketchtree_trees_processed 80"), "{scrape}");

    let mut client = sketchtree_server::Client::connect(addr.as_str()).unwrap();
    client.shutdown().unwrap();
    assert!(server.wait().unwrap().success());
    std::fs::remove_file(&xml).ok();
}

/// Full networked path through the binary: `serve` on an ephemeral port,
/// `remote-ingest` a corpus, `remote-query` it, then shut the server
/// down over the wire and verify the checkpoint restarts.
#[test]
fn binary_serve_remote_roundtrip() {
    use std::io::{BufRead, BufReader};
    let xml = tmp("serve.xml");
    let snap = tmp("serve.snapshot");
    std::fs::remove_file(&snap).ok();
    let mut corpus = String::new();
    for _ in 0..120 {
        corpus.push_str("<r><a>x</a></r>\n");
    }
    std::fs::write(&xml, corpus).unwrap();

    let mut server = Command::new(bin())
        .args([
            "serve",
            "127.0.0.1:0",
            "--snapshot",
            snap.to_str().unwrap(),
            "--streams",
            "13",
            "--s1",
            "30",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut first_line = String::new();
    BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .expect("address line")
        .to_string();

    let out = Command::new(bin())
        .args(["remote-ingest", &addr, xml.to_str().unwrap(), "--batch", "32"])
        .output()
        .expect("remote-ingest runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ingested 120 documents"), "{stdout}");

    let out = Command::new(bin())
        .args(["remote-query", &addr, "r(a)"])
        .output()
        .expect("remote-query runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let est: f64 = stdout.trim().split('\t').nth(1).unwrap().parse().unwrap();
    assert!((est - 120.0).abs() < 30.0, "{stdout}");

    // Shut the server down over the wire; the process exits cleanly and
    // leaves a checkpoint behind.
    let mut client = sketchtree_server::Client::connect(addr.as_str()).unwrap();
    client.shutdown().unwrap();
    let status = server.wait().expect("server exits");
    assert!(status.success());
    assert!(snap.exists(), "shutdown writes the checkpoint");

    // A restarted server resumes from the checkpoint.
    let mut server = Command::new(bin())
        .args(["serve", "127.0.0.1:0", "--snapshot", snap.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server restarts");
    let mut first_line = String::new();
    BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line.trim().strip_prefix("listening on ").unwrap().to_string();
    let mut client = sketchtree_server::Client::connect(addr.as_str()).unwrap();
    assert_eq!(client.stats().unwrap().trees_processed, 120);
    client.shutdown().unwrap();
    assert!(server.wait().unwrap().success());

    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&snap).ok();
}
