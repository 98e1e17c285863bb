module mllibstar

go 1.23
